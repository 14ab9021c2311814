"""Golden transcripts for the count and frequency trackers' ingest paths.

The digests below were generated at the commit *before* quiet-stretch
ingest (``python tests/integration/test_scheme_golden.py`` prints the
tables), when every site was still handed one ``on_elements`` call per
arrival-order run.  ``GOLDEN`` pins, per seeded stream, a sha256 over
the complete :class:`TranscriptRecorder` byte stream, every site's final
RNG state (the frequency site's sticky-sampler stream included) and the
job's ``comm.snapshot()`` — with ``uplink_drop_rate`` 0.1 the ledger
also sees every draw of the network's loss RNG, so a reordered uplink
changes it.  Every driving path (per-event ``Simulation.process``,
``run_batched`` on lists and numpy arrays, ``TrackingService.ingest`` in
batches) must reproduce the same digest, over k = 1, 3 and 16, many
rounds, and run lengths 1, 7, 64 and whole-batch.

``SPACE_GOLDEN`` pins the space ledgers the same way.  Space is sampled,
and each path samples on its own cadence (per event; at the first run
end ``space_sample_interval`` elements after the last sweep), so one
digest covers the three ledgers side by side: a driver that moves a
sweep by one run moves a high-water mark here.

The rank tracker has its own table in ``test_rank_kernel_golden.py``.
"""

import hashlib
import json
import random

import pytest

from repro import (
    DeterministicCountScheme,
    RandomizedCountScheme,
    RandomizedFrequencyScheme,
    Simulation,
    TrackingService,
)
from repro.runtime import TranscriptRecorder

np = pytest.importorskip("numpy")

SEED = 23
N = 2400
BATCH = 257  # the "whole-batch" run length, and the service's ingest size
SWEEP = 50  # the service's space_sample_interval (its default never fires)

SCHEMES = {
    "count-rand": lambda: RandomizedCountScheme(0.05),
    "count-det": lambda: DeterministicCountScheme(0.05),
    "freq-int": lambda: RandomizedFrequencyScheme(0.05),
    "freq-str": lambda: RandomizedFrequencyScheme(0.05),
}
KS = (1, 3, 16)
DROPS = (0.0, 0.1)
RUN_LENGTHS = (1, 7, 64, BATCH)

#: id -> (scheme key, k, uplink_drop_rate)
CASES = {
    f"{name}-k{k}-drop{int(drop * 10)}": (name, k, drop)
    for name in SCHEMES
    for k in KS
    for drop in DROPS
}

GOLDEN = {
    "count-rand-k1-drop0/1": "5c623d79238af05767137ab4baeb5e1ea1903a22c504e0835e1810e3edddb80d",
    "count-rand-k1-drop0/7": "5c623d79238af05767137ab4baeb5e1ea1903a22c504e0835e1810e3edddb80d",
    "count-rand-k1-drop0/64": "5c623d79238af05767137ab4baeb5e1ea1903a22c504e0835e1810e3edddb80d",
    "count-rand-k1-drop0/257": "5c623d79238af05767137ab4baeb5e1ea1903a22c504e0835e1810e3edddb80d",
    "count-rand-k1-drop1/1": "b8f8bb331b6d4277134df0a977143906d0728a1eb1fbdb0d53e770b088108fcf",
    "count-rand-k1-drop1/7": "b8f8bb331b6d4277134df0a977143906d0728a1eb1fbdb0d53e770b088108fcf",
    "count-rand-k1-drop1/64": "b8f8bb331b6d4277134df0a977143906d0728a1eb1fbdb0d53e770b088108fcf",
    "count-rand-k1-drop1/257": "b8f8bb331b6d4277134df0a977143906d0728a1eb1fbdb0d53e770b088108fcf",
    "count-rand-k3-drop0/1": "d76a5700ba2da6f4c13de4e9053a316baa7a928fbcb3db7d96d667709229bb11",
    "count-rand-k3-drop0/7": "652ffaa3619b0978db9a69018c534e389fcfd6efa5966df466de54ee618b5842",
    "count-rand-k3-drop0/64": "92e33527e1ff4d8ee156ad29a3a1028fffb9757f29aafb0814fadf595179045a",
    "count-rand-k3-drop0/257": "c040fc35b84fafa09a9c92212a52b11c1d2ded684abd720de6b5e4b05d5a527d",
    "count-rand-k3-drop1/1": "664928ce9fa267d1baa9c8deb6039f609e4945e860414cc4e3a9a73d519a3b46",
    "count-rand-k3-drop1/7": "a37dcf276d1fe2ab791e6fef30e60b1c2d9db4a4f942152948c2baf30bc8a745",
    "count-rand-k3-drop1/64": "881714543239ce8729092f4aea74f26e11545e76c054dc3429827b55345a577c",
    "count-rand-k3-drop1/257": "0c0f0367859fa32634bf7b458b60407f3de92474687130bdbe15ddd617539c3d",
    "count-rand-k16-drop0/1": "6d5dd6376c9440d1a508cde0d7643b68eaaa2fb9c9811660f9c8b1d8721dc86e",
    "count-rand-k16-drop0/7": "6fe6ea44df7a21ec49c4f2ffd8c7f68d09051f700771bf38b4be26b5b4330cd2",
    "count-rand-k16-drop0/64": "e4309567f15f91dcb0f1887f7901bd5a339345e44c50833238d1c970b967f541",
    "count-rand-k16-drop0/257": "883ce7519aff15e15ef05d80cfa81fa8f5ee92a7b5fecb185a14aa6c4f88ce45",
    "count-rand-k16-drop1/1": "cadbabc79be7d1087c375b67d89cf1ee5d74b31187a0b42af93eda5295f3e970",
    "count-rand-k16-drop1/7": "c3ace10e5e610c4dc12ac045725b293598e934267f7965f75588398b773e1068",
    "count-rand-k16-drop1/64": "fe76c5ae6ff25c8682c6553a52777540ded1b99fa93723945d82d10a20dd0b9b",
    "count-rand-k16-drop1/257": "0a1647ecbd9f51699f3f39b9f0224e4b503ba867ef1c9b82d8f264c4a1e20ff8",
    "count-det-k1-drop0/1": "3f63c701d009d7fcdb8cc5dfd22e5ebea678c11de62dacd9fc6ac1349c546a6d",
    "count-det-k1-drop0/7": "3f63c701d009d7fcdb8cc5dfd22e5ebea678c11de62dacd9fc6ac1349c546a6d",
    "count-det-k1-drop0/64": "3f63c701d009d7fcdb8cc5dfd22e5ebea678c11de62dacd9fc6ac1349c546a6d",
    "count-det-k1-drop0/257": "3f63c701d009d7fcdb8cc5dfd22e5ebea678c11de62dacd9fc6ac1349c546a6d",
    "count-det-k1-drop1/1": "3f63c701d009d7fcdb8cc5dfd22e5ebea678c11de62dacd9fc6ac1349c546a6d",
    "count-det-k1-drop1/7": "3f63c701d009d7fcdb8cc5dfd22e5ebea678c11de62dacd9fc6ac1349c546a6d",
    "count-det-k1-drop1/64": "3f63c701d009d7fcdb8cc5dfd22e5ebea678c11de62dacd9fc6ac1349c546a6d",
    "count-det-k1-drop1/257": "3f63c701d009d7fcdb8cc5dfd22e5ebea678c11de62dacd9fc6ac1349c546a6d",
    "count-det-k3-drop0/1": "f83fddc47f99a0ed61140bfb76f9079675e8dc870283938fe1040418a6d9e8a4",
    "count-det-k3-drop0/7": "fb540aa4b4f3daaaa58e1912dd7e9ee5a5aec3529073031e28dbd75d8eb20c7b",
    "count-det-k3-drop0/64": "aa4333950d9453aa289f05f3bd0c4b63b3ca47e3785d5680a29c9765830dc582",
    "count-det-k3-drop0/257": "3d35b5cfae5a8213497ef8d61d418771d1719b114fc4e658ee4a26fc15e95166",
    "count-det-k3-drop1/1": "e7b20bca7fdce4b550d4329cf13dab011e95e7a12e0abfc2fa128d0bacacf302",
    "count-det-k3-drop1/7": "88a47faac64bb88382d1e8fff69c901ff2b9377ac1b48cf2cf6334846c855049",
    "count-det-k3-drop1/64": "162810a55f202dbee09938e99c077c861f9374029581b2d36b45fb909cd4fb04",
    "count-det-k3-drop1/257": "0834c780c813e61985ec66353978a956133aa4bf1b1c7dabd1e47be1b518deff",
    "count-det-k16-drop0/1": "65bfd4ede58927bcd679243fa5784a6607aefb9e0dce55000b5b9d28e20a76f0",
    "count-det-k16-drop0/7": "e4cfecfc51da28653df4aa79924b98038cd787975536ee39b4220d171625bfd3",
    "count-det-k16-drop0/64": "4ca553bb056aa441618690eb754b577fda99b8385158218913d0cdcdd21256e4",
    "count-det-k16-drop0/257": "416aa6df303f59323e17e076e8d1f24f1d0e5e4ca30f0f23409f599882d79ab5",
    "count-det-k16-drop1/1": "59092a9d8021f6f471a9d6d57be0100cea6717240a4ca743bf9286d6cae589f9",
    "count-det-k16-drop1/7": "6d7af90863b498a7d8e4f193fa38b80540c7579c171c672aa7f1ba9c5b891ac4",
    "count-det-k16-drop1/64": "2f0b49f5fe0d148ac883915677000252817c776348b9f0beee319f5f9fd78883",
    "count-det-k16-drop1/257": "e4f649a98a1e2b2faadfa2e5944cc42e091f2c4d8b14a1b2611670ec2cecd788",
    "freq-int-k1-drop0/1": "b04038bdf2a06e1befefaa2296c906aaeb84a67a10e94690e7aaf50564840920",
    "freq-int-k1-drop0/7": "19eb5f16526e495a05d8295c65afe600d094ba177b009aeff82795b48c01a719",
    "freq-int-k1-drop0/64": "5ab51d114bd0584339fa0af614195e11eaf4478533563a86bbf114ca0401e5b0",
    "freq-int-k1-drop0/257": "062652aecd45f8c1adbf856fb4fbd64dd5e90d217d97a37a96a6dec45687f630",
    "freq-int-k1-drop1/1": "8795e184e2a3487dfda0a6397c078aaa2949e39382ea78a41667a98a8b02bb22",
    "freq-int-k1-drop1/7": "315b55b1fec869fa0d6321f9f68e03c34d79310ca7f943d2c1284391253f5a9e",
    "freq-int-k1-drop1/64": "2884c02fc73208fb875f180cd36566b82dfa562a495f4c7c082e51ecc3a6d5e6",
    "freq-int-k1-drop1/257": "66cd47ab726f064115250d61a4fcf9d328506855ef9d507d66fe63d6bba88c16",
    "freq-int-k3-drop0/1": "ed6479f45c0496ab074cc38dc40d50c382da92fa4bbf5c46f25de203e2745b6b",
    "freq-int-k3-drop0/7": "9d067f5050c81bb80273cf24364439545adc61d4dc92cf1ef53043aac0f903e7",
    "freq-int-k3-drop0/64": "cef14160637854aa8c4bfbe4b43a43ba04fbd81629a747afdf1a2d121434ee17",
    "freq-int-k3-drop0/257": "d9ef1a059bd52b20933facf114b24e5ac929289938a257aaea6edd2431055e52",
    "freq-int-k3-drop1/1": "e9454f8a9458af38f2a52f7f40f340ba2465538320b373ff9b08eace55d6416d",
    "freq-int-k3-drop1/7": "e8d5cea92005b4842152636de842a879c70a35bd641fbf9fd5d78f7a6f32d230",
    "freq-int-k3-drop1/64": "b058870a754e6dc079122d8affb2e2584b8bf98a37060004c9825fc727886d32",
    "freq-int-k3-drop1/257": "d121777884d9a371ffc8b0c8e5fc58aa8c1de21319ada287cc1639e3857eacbf",
    "freq-int-k16-drop0/1": "d0f2072b8b9668dab30ce349db75de40c4999208e1bc5f632ac75d3a9e625445",
    "freq-int-k16-drop0/7": "356167262a326c0fb33b433a03fbf717f4a7c84daa2acf12601547d08c31ec72",
    "freq-int-k16-drop0/64": "8e7257101e6fd88f98abb355c8e2e4550dfaac32481710d1503beb83ddcf5259",
    "freq-int-k16-drop0/257": "64d768a0b5559d6e9354b1ed4d81796a9bf9cd8be7a8cf38daa30972587ffd8f",
    "freq-int-k16-drop1/1": "3327ce4fb3500ac106d3f3cdf23456ca728b52d6fe136484442a9fb03abd7c67",
    "freq-int-k16-drop1/7": "c0deaa71bfa4d2d1b91d4db6a3935f51aec4dd301cf461cfb349a1d1dcfc8148",
    "freq-int-k16-drop1/64": "7c2c57afe9ad9302233c8c036248509312644bcf33c9417a1dfb3878c53300ae",
    "freq-int-k16-drop1/257": "8aebcd6761af91a2b69daaf5ad712c3722f3b8dd7059e066d52a9c68b5d599b1",
    "freq-str-k1-drop0/1": "33b6362fe9924f0212678e35c2eddac2a9b0ee3ca432e7cbc6dc33e71eac6773",
    "freq-str-k1-drop0/7": "01326cbcfbe62109e8ed5e0dfac99b358cc92c8f3714d77161094831c772b9b7",
    "freq-str-k1-drop0/64": "e2949161d46f6532f1aca992cf165ddf0f0eeb9c47406d5f281a2b1cc013c0c9",
    "freq-str-k1-drop0/257": "63851ffccaeaf4789b693b462fbba2438394ece1ce054c1fc7e3569cfdca2299",
    "freq-str-k1-drop1/1": "3aacb13e1f1932e7ffc18cd7f526efb1d48a975dff121f87aa674c10d37c6414",
    "freq-str-k1-drop1/7": "b1097fd4220ab10235b951b8422e974f353f1d02905e9b3d077819c990318b7c",
    "freq-str-k1-drop1/64": "6be0d3db350ecb49204e4e9fef03582d4053d21997a938a162c21ec8d07c1d45",
    "freq-str-k1-drop1/257": "630f88c60b14a59cbcc271366c70ecaed879eb4a725466a3387c081d0cf22cc9",
    "freq-str-k3-drop0/1": "3e33b12e103bfbd7a385b4ae2d8c6fae4dd7851b92ace45d0cbe6de71a6a210b",
    "freq-str-k3-drop0/7": "f092f0bb8d225e36e03c61e669b0df177862f401ada6eac3a4dcbdee802329ad",
    "freq-str-k3-drop0/64": "66961d10c6f16f1e1c5a2d9eec195cfcedb8feb8e148a7bff5b1dc7ca0424911",
    "freq-str-k3-drop0/257": "16dd5937a8a89c86c6e50e30f5ef8577773418758b42d9ec4f9702e38a8ca1dd",
    "freq-str-k3-drop1/1": "71f81ac57eed983b050214ca76f254ae396e1b54b81660181ead26a34da2e4f9",
    "freq-str-k3-drop1/7": "79a7d68f31210c67c245f5eb4162ac011b182fa2166e12ef950a83207626fb1a",
    "freq-str-k3-drop1/64": "b96b7d8f29232a332983752e236144c60ef14e3f9a5738c2989906eb92b09051",
    "freq-str-k3-drop1/257": "84b1aeb21b237609e9007d796252e5ff55c30c8e219a677f4d3224eeda0060dc",
    "freq-str-k16-drop0/1": "c01f4d1a7d9f8820c07b6679ce177a0a8d0fc8411dfc46606a657a04848e1a81",
    "freq-str-k16-drop0/7": "5072f1a7e364f955b336ac287e257901c37f8bb6d8c14b31acdc02d5b619c94e",
    "freq-str-k16-drop0/64": "305aed28a75c3835200665d7f0bb5f8033a122f6966d583b4ea0be912aeca0c7",
    "freq-str-k16-drop0/257": "bc23dc78e89ca6bb3a908459dc17ae1295b263b7bba4c128a6588e212c14fdb8",
    "freq-str-k16-drop1/1": "46eba9e426b7f155e5e8d0e7da826f94c1cfe9613fef1f72f11479b0fd6af689",
    "freq-str-k16-drop1/7": "9754ddce9614288f8b6ceb64973d8067f262fe18ebcd8d3781913cdb78842744",
    "freq-str-k16-drop1/64": "b821e691a9e4dad7ef0c26a8fde5b156492c7db0eb115cbd6828f39710492947",
    "freq-str-k16-drop1/257": "f78419d7d14494d384bcb4324103a7702fccf248175d885b00d5020de7d94d8d",
}

SPACE_GOLDEN = {
    "count-rand-k1-drop0/1": "be16a5759129243c6d7a51cd4af9130fb77de4a6aaeb64b25f25e3a0f5905420",
    "count-rand-k1-drop0/7": "be16a5759129243c6d7a51cd4af9130fb77de4a6aaeb64b25f25e3a0f5905420",
    "count-rand-k1-drop0/64": "be16a5759129243c6d7a51cd4af9130fb77de4a6aaeb64b25f25e3a0f5905420",
    "count-rand-k1-drop0/257": "be16a5759129243c6d7a51cd4af9130fb77de4a6aaeb64b25f25e3a0f5905420",
    "count-rand-k1-drop1/1": "be16a5759129243c6d7a51cd4af9130fb77de4a6aaeb64b25f25e3a0f5905420",
    "count-rand-k1-drop1/7": "be16a5759129243c6d7a51cd4af9130fb77de4a6aaeb64b25f25e3a0f5905420",
    "count-rand-k1-drop1/64": "be16a5759129243c6d7a51cd4af9130fb77de4a6aaeb64b25f25e3a0f5905420",
    "count-rand-k1-drop1/257": "be16a5759129243c6d7a51cd4af9130fb77de4a6aaeb64b25f25e3a0f5905420",
    "count-rand-k3-drop0/1": "12581917665509f641c51807dbb287922bda1795750bc54a541cc02b7ff3d331",
    "count-rand-k3-drop0/7": "12581917665509f641c51807dbb287922bda1795750bc54a541cc02b7ff3d331",
    "count-rand-k3-drop0/64": "12581917665509f641c51807dbb287922bda1795750bc54a541cc02b7ff3d331",
    "count-rand-k3-drop0/257": "12581917665509f641c51807dbb287922bda1795750bc54a541cc02b7ff3d331",
    "count-rand-k3-drop1/1": "12581917665509f641c51807dbb287922bda1795750bc54a541cc02b7ff3d331",
    "count-rand-k3-drop1/7": "12581917665509f641c51807dbb287922bda1795750bc54a541cc02b7ff3d331",
    "count-rand-k3-drop1/64": "12581917665509f641c51807dbb287922bda1795750bc54a541cc02b7ff3d331",
    "count-rand-k3-drop1/257": "12581917665509f641c51807dbb287922bda1795750bc54a541cc02b7ff3d331",
    "count-rand-k16-drop0/1": "daefa9a72def084cc2afc6e20f3aa55c65fa2df20e521463742060907fcfad97",
    "count-rand-k16-drop0/7": "daefa9a72def084cc2afc6e20f3aa55c65fa2df20e521463742060907fcfad97",
    "count-rand-k16-drop0/64": "b7fd9145a8cb0c3cc0a56be873c20a531cd396065084e7aabec60345e4fdb865",
    "count-rand-k16-drop0/257": "a50adb4617ebfa189fff309b8ec86f152f10bdc2553eaadd3de199144d37f0a4",
    "count-rand-k16-drop1/1": "daefa9a72def084cc2afc6e20f3aa55c65fa2df20e521463742060907fcfad97",
    "count-rand-k16-drop1/7": "daefa9a72def084cc2afc6e20f3aa55c65fa2df20e521463742060907fcfad97",
    "count-rand-k16-drop1/64": "b7fd9145a8cb0c3cc0a56be873c20a531cd396065084e7aabec60345e4fdb865",
    "count-rand-k16-drop1/257": "a4897680390afeb65d4c5462d45c627ec13af73978b8bdfb9a876dd9eef0d002",
    "count-det-k1-drop0/1": "6968e7b73569b8e940bc88a5a7eaf943b960c2786896e5603f09b8c7a952dd2a",
    "count-det-k1-drop0/7": "6968e7b73569b8e940bc88a5a7eaf943b960c2786896e5603f09b8c7a952dd2a",
    "count-det-k1-drop0/64": "6968e7b73569b8e940bc88a5a7eaf943b960c2786896e5603f09b8c7a952dd2a",
    "count-det-k1-drop0/257": "6968e7b73569b8e940bc88a5a7eaf943b960c2786896e5603f09b8c7a952dd2a",
    "count-det-k1-drop1/1": "6968e7b73569b8e940bc88a5a7eaf943b960c2786896e5603f09b8c7a952dd2a",
    "count-det-k1-drop1/7": "6968e7b73569b8e940bc88a5a7eaf943b960c2786896e5603f09b8c7a952dd2a",
    "count-det-k1-drop1/64": "6968e7b73569b8e940bc88a5a7eaf943b960c2786896e5603f09b8c7a952dd2a",
    "count-det-k1-drop1/257": "6968e7b73569b8e940bc88a5a7eaf943b960c2786896e5603f09b8c7a952dd2a",
    "count-det-k3-drop0/1": "ca5f13ac59cb86a34edf6c62352a5c0b00ca9abb16c29f361c57187552c964ad",
    "count-det-k3-drop0/7": "ca5f13ac59cb86a34edf6c62352a5c0b00ca9abb16c29f361c57187552c964ad",
    "count-det-k3-drop0/64": "ca5f13ac59cb86a34edf6c62352a5c0b00ca9abb16c29f361c57187552c964ad",
    "count-det-k3-drop0/257": "ca5f13ac59cb86a34edf6c62352a5c0b00ca9abb16c29f361c57187552c964ad",
    "count-det-k3-drop1/1": "ca5f13ac59cb86a34edf6c62352a5c0b00ca9abb16c29f361c57187552c964ad",
    "count-det-k3-drop1/7": "ca5f13ac59cb86a34edf6c62352a5c0b00ca9abb16c29f361c57187552c964ad",
    "count-det-k3-drop1/64": "ca5f13ac59cb86a34edf6c62352a5c0b00ca9abb16c29f361c57187552c964ad",
    "count-det-k3-drop1/257": "ca5f13ac59cb86a34edf6c62352a5c0b00ca9abb16c29f361c57187552c964ad",
    "count-det-k16-drop0/1": "2a049b4b9d5673f9dbc8bec119125549445f211ac8d1cf5fde5a392ed71c34ad",
    "count-det-k16-drop0/7": "2a049b4b9d5673f9dbc8bec119125549445f211ac8d1cf5fde5a392ed71c34ad",
    "count-det-k16-drop0/64": "a2cb78da26b26ea71038bda029ff6c37e4e8c5559074209303aeeb37317a475b",
    "count-det-k16-drop0/257": "f41aff81d33c33c0f2757de9bfaedda7993b9f79dc9d9074502bd69098c76b3d",
    "count-det-k16-drop1/1": "2a049b4b9d5673f9dbc8bec119125549445f211ac8d1cf5fde5a392ed71c34ad",
    "count-det-k16-drop1/7": "2a049b4b9d5673f9dbc8bec119125549445f211ac8d1cf5fde5a392ed71c34ad",
    "count-det-k16-drop1/64": "cb7d4e635e08d3a8e0de9372057246573069788bebcf6000ceca2cc76e49fea8",
    "count-det-k16-drop1/257": "ab2654c744a6ea4813674ffb4657a6e23b44e4435776faa337f025fe3b32c0a2",
    "freq-int-k1-drop0/1": "cc94fe8a9c45c4a23d3cce47467994455d0fc4cdea134e44bb108d40226bb52f",
    "freq-int-k1-drop0/7": "ce36918389c590f3f97ffdc25c4a424a3190902ff56e3024aecb770f2f3c5456",
    "freq-int-k1-drop0/64": "32fbe23440eff018f7e92024dae8c4b5b75841cba021ea014a5b8d06498cbe99",
    "freq-int-k1-drop0/257": "66763744b981fbfc10fc724e1004f500eaf2e77621da91e31fafcfc9faa93756",
    "freq-int-k1-drop1/1": "43543ba33fa9160549318e9f326a0f1bf01c55453a453637980197ce3bf7836c",
    "freq-int-k1-drop1/7": "d8b69ee697192a3c570ecddb0b71f8f4fba664b079a4bf2a48eb807654462e31",
    "freq-int-k1-drop1/64": "3885b13c695c2cb4a04751f5c0ee57db0d0be2559131bfb356a1cb35076082d2",
    "freq-int-k1-drop1/257": "00ac47f2c0ef664948e82c9680c9ea3e0a0de10abf420fa41398a32bb1a8d20e",
    "freq-int-k3-drop0/1": "830a0b7538401da53279007dba01ba797689f5c8c511800291e6f0884f70efec",
    "freq-int-k3-drop0/7": "68417cd8b193337dc797d0ab7cce7aab855befdf8108d56a28b35cfda11d2a66",
    "freq-int-k3-drop0/64": "2e97e275ff635461147ca5e7862af584af3d95e653b2aa93cc4569082a4c3fe3",
    "freq-int-k3-drop0/257": "d7e1c0496ff0fc1ca36eb6ecc44594298a5116bf2ddf82d3ebaa8c4fdcc755fe",
    "freq-int-k3-drop1/1": "5e8a8b18b8da5941ce69063531416245deecb79bb156ef55af1ee2e5630d69eb",
    "freq-int-k3-drop1/7": "3476f7ea08a9703dc1ed0f5725b9949138e8e3e1ded72009b3a512e28bf7abff",
    "freq-int-k3-drop1/64": "84f942b7026943bcbada560befc2ccff87b61123c1b4f49694d3ec1203248780",
    "freq-int-k3-drop1/257": "46ece85bb8bc006f6d191a4f90dac250bdc26b0dcc9a250e65337eab98ac990a",
    "freq-int-k16-drop0/1": "98f79f901fe028905be6885f991e81b33dac6efdc1a793d17676580266d2cc48",
    "freq-int-k16-drop0/7": "0473795f905e00853c52abd038163bb0cb68a2cf615fa0f16b124c22615dba66",
    "freq-int-k16-drop0/64": "c55deb26717da27d5e7a46252e2be3641b89e022a77eb0fee8e65babd70da3f5",
    "freq-int-k16-drop0/257": "38e2b9dd2e895d9e9e8880d8e82c7b38e13ab4f5d38c7c61d719699ba2f94fc9",
    "freq-int-k16-drop1/1": "06846ce9aa27df1bcf7e1ec48c3abfd02a1f8fbdab4ab75935de601dae1d09bb",
    "freq-int-k16-drop1/7": "54ca727976bcc92c2c2c57f5391647166e5e7157fafeea379c7c083fd0af6840",
    "freq-int-k16-drop1/64": "ff81ff749d1a97294db6a20d6f7cec1e08445f4f2b8bc7078b8f702bbe6d3cb7",
    "freq-int-k16-drop1/257": "0a044cdd241c16db0037ea707342d572e5d2d703bf5025b301e8d7b96d85ed17",
    "freq-str-k1-drop0/1": "e2f4956a514d374512d92f53245a8b3be9aef1940cd5d2a97f04779cb4ff5a1c",
    "freq-str-k1-drop0/7": "59c509bac3583e55d486c428a133de43227b6f6fb596d518d8fe68bafe044bd7",
    "freq-str-k1-drop0/64": "3e6e15188e2e19a84e806cd9a813ae44e19a1705eb9df55ad4c344d53f865d97",
    "freq-str-k1-drop0/257": "a2aafa90cf5ded51641d9c0995b9da952ae3d8a6c84efd5b02f0049d7d72c5b0",
    "freq-str-k1-drop1/1": "26c514c02cb4c3bdef0db00365f35fe28db4189fb43a74617583c1cf1bd48b86",
    "freq-str-k1-drop1/7": "99fb8ded5159db6607be9fbf33d8d97b9a13ded2ddce187019b1e2d0382235ac",
    "freq-str-k1-drop1/64": "969395891e6f26eedb1f71d146980b4aea529764a6fd6a18b613f4a0ec52a1ef",
    "freq-str-k1-drop1/257": "266718b6c26f5b25f021b03af048a80989973d1fbd447136f2d791a244aeb00b",
    "freq-str-k3-drop0/1": "1a715714de15b26e4ceb7e2065a8f0ba9e25de08cd9bae1141b36b892e55bc30",
    "freq-str-k3-drop0/7": "75d07b80c5e0a3de8af2e6b2679b418a9fefb6822b5b55a734038b2f216a9e55",
    "freq-str-k3-drop0/64": "0d3aa73c7b1f19ef7954886759f3c8966b52f5d6ff86d23208d7d2e3185662a9",
    "freq-str-k3-drop0/257": "16cdaff6d56d5aa2b809f3127e25a70165f04d724f9fa65664c14d4353a53336",
    "freq-str-k3-drop1/1": "d7f9ba7ae26ea81bc9c1fd04cb030ce7ef272a4296a93664722e40e0547d6bb9",
    "freq-str-k3-drop1/7": "ac74aee96c8badb7877a9eaec60e4eab80297e4983862627bb29a197855042af",
    "freq-str-k3-drop1/64": "3f2208ad92e8fe897f0ee7d5a4114ccdb025e652673d558dbc22e9e17bf003ff",
    "freq-str-k3-drop1/257": "b43d72edbdefdf01fb2841bed49d484d717ed96b28443c20f2063285d8435fd3",
    "freq-str-k16-drop0/1": "2b31d27e93129e0d9f28b76bb1a15387c6b7659ef37dd4a48beb19610b044c4e",
    "freq-str-k16-drop0/7": "7ad40c78991e8d2720fffe922f8d2e254149a862960ec65deb94ec698213b5b1",
    "freq-str-k16-drop0/64": "46b7bf85cf9f5d7d616d28701481d4c801039caf65cc95bb3b60e962209f5e19",
    "freq-str-k16-drop0/257": "3587d3a63b4cd23c4305b22b244755454619fe42f56550933180267b856f8209",
    "freq-str-k16-drop1/1": "42cd320eb7aefae5ae04e9cd0964e556a2ea795a5ea0534ac9e6ee7a3b01d208",
    "freq-str-k16-drop1/7": "2aee96860346e5835988e45dd356474eb6b25e513688ee674779e7027b6d3f1a",
    "freq-str-k16-drop1/64": "4b0596e618a1b93fb26d2a38097c9409f1cbdd52882a3821ee70aac3881ed19d",
    "freq-str-k16-drop1/257": "4ba543195cc6febfee970dc3d8c718ea58f6169697d68104da37b8509513df8a",
}


def make_stream(case_id, run_length):
    """Seeded (site_ids, items): runs of ``run_length`` events per site;
    Zipf-ish items so sticky counters are hit often, a skewed site choice
    so one site outgrows ``n_bar / k`` and splits into virtual sites."""
    name, k, _ = CASES[case_id]
    rng = random.Random(f"{case_id}/{run_length}")
    site_ids, items = [], []
    while len(site_ids) < N:
        site = min(rng.randrange(k), rng.randrange(k))
        for _ in range(min(run_length, N - len(site_ids))):
            site_ids.append(site)
            value = int(rng.paretovariate(1.1)) % 97
            items.append(f"item-{value}" if name == "freq-str" else value)
    return site_ids, items


def rng_states(sites):
    return [
        [
            rng.getstate()
            for rng in (
                getattr(site, "rng", None),
                getattr(getattr(site, "sticky", None), "rng", None),
            )
            if rng is not None
        ]
        for site in sites
    ]


def digest(recorder, host):
    h = hashlib.sha256(recorder.to_bytes())
    h.update(json.dumps(rng_states(host.sites)).encode())
    h.update(json.dumps(host.comm.snapshot(), sort_keys=True).encode())
    return h.hexdigest()


def space_ledger(host):
    space = host.space
    return [sorted(space.max_words_per_site.items()), space.coordinator_max_words]


def space_digest(ledgers):
    return hashlib.sha256(json.dumps(ledgers).encode()).hexdigest()


def traced_simulation(case_id):
    name, k, drop = CASES[case_id]
    sim = Simulation(SCHEMES[name](), k, seed=SEED, uplink_drop_rate=drop)
    return sim, TranscriptRecorder().attach(sim.network)


def run_per_event(case_id, site_ids, items):
    sim, recorder = traced_simulation(case_id)
    for site_id, item in zip(site_ids, items):
        sim.process(site_id, item)
    return digest(recorder, sim), space_ledger(sim)


def run_batched(case_id, site_ids, items):
    sim, recorder = traced_simulation(case_id)
    sim.run_batched(site_ids, items)
    return digest(recorder, sim), space_ledger(sim)


def run_service(case_id, site_ids, items):
    name, k, drop = CASES[case_id]
    service = TrackingService(
        num_sites=k, seed=SEED, uplink_drop_rate=drop,
        space_sample_interval=SWEEP,
    )
    job = service.register("job", SCHEMES[name](), seed=SEED)
    recorder = TranscriptRecorder().attach(job.network)
    for lo in range(0, len(site_ids), BATCH):
        service.ingest(site_ids[lo : lo + BATCH], items[lo : lo + BATCH])
    return digest(recorder, job), space_ledger(job)


PAIRS = [(c, r) for c in CASES for r in RUN_LENGTHS]


@pytest.mark.parametrize("case_id,run_length", PAIRS)
def test_every_driving_path_reproduces_the_golden_transcript(
    case_id, run_length
):
    site_ids, items = make_stream(case_id, run_length)
    key = f"{case_id}/{run_length}"
    per_event, event_space = run_per_event(case_id, site_ids, items)
    batched, batched_space = run_batched(case_id, site_ids, items)
    service, service_space = run_service(case_id, site_ids, items)
    assert per_event == GOLDEN[key]
    assert batched == GOLDEN[key]
    assert service == GOLDEN[key]
    ledgers = [event_space, batched_space, service_space]
    assert space_digest(ledgers) == SPACE_GOLDEN[key]
    arrays = np.asarray(site_ids), np.asarray(items)
    assert run_batched(case_id, *arrays) == (batched, batched_space)
    assert run_service(case_id, *arrays) == (service, service_space)


@pytest.mark.parametrize("case_id", CASES)
def test_cases_cover_rounds_drops_and_virtual_site_splits(case_id):
    name, k, drop = CASES[case_id]
    sim, recorder = traced_simulation(case_id)
    sim.run_batched(*make_stream(case_id, 7))
    kinds = [entry[2] for entry in recorder.entries]
    if name != "count-det":
        assert kinds.count("round") >= 3
    if name.startswith("freq") and k > 1:  # one site never outgrows n_bar
        assert "split" in kinds
    assert (sim.network.dropped_uplink_messages > 0) == (drop > 0)


if __name__ == "__main__":
    table, space_table = {}, {}
    for case, length in PAIRS:
        stream = make_stream(case, length)
        table[f"{case}/{length}"], event_space = run_per_event(case, *stream)
        space_table[f"{case}/{length}"] = space_digest(
            [event_space, run_batched(case, *stream)[1],
             run_service(case, *stream)[1]]
        )
    print("GOLDEN =", json.dumps(table, indent=4))
    print("SPACE_GOLDEN =", json.dumps(space_table, indent=4))
