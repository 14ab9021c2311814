"""Golden transcripts for the Section 4 rank tracker's site-side kernel.

The digests below were generated at the commit *before* the shared-intake
ingest kernel (``python tests/integration/test_rank_kernel_golden.py``
prints the table) and pin, per seeded stream, a sha256 over the complete
:class:`TranscriptRecorder` byte stream — every message kind, every
payload including each shipped summary's ``values``/``weights``, every
word count — followed by each site's final ``rng.getstate()``.  The
message-count and three-quantile checks of the equivalence suites cannot
see a reordered random-halving draw that happens to ship the same number
of words; these digests can.

Every driving path (per-event ``Simulation.process``, ``run_batched`` on
lists and numpy arrays, ``TrackingService.ingest`` in batches) must
reproduce the same digest, over geometries that include block sizes 1
and 2 (buffer size 4 exceeds the node, so a builder never flushes),
``h = 0``, the flat-tree ablation, several rounds, and run lengths 1, 7,
64 and whole-batch.

``SNAPSHOT_GOLDEN`` pins the encoded checkpoint layout of a rank job
stopped mid-block the same way: a snapshot written by the earlier commit
is byte-identical to one written now, so it restores exactly.
"""

import hashlib
import json
import random

import pytest

from repro import RandomizedRankScheme, Simulation, TrackingService
from repro.core.rank.randomized import RoundGeometry
from repro.runtime import TranscriptRecorder

np = pytest.importorskip("numpy")

SEED = 17
BATCH = 257  # the "whole-batch" run length, and the service's ingest size

#: id -> (k, eps, n, flat_tree, mixed int/float items)
CASES = {
    "k2-eps05": (2, 0.05, 3000, False, False),
    "k8-eps02-ladder": (8, 0.02, 12000, False, False),
    "k16-eps30-h0": (16, 0.3, 6000, False, False),
    "k5-eps10-flat": (5, 0.1, 4000, True, False),
    "k3-eps01-tiny-blocks": (3, 0.01, 2500, False, False),
    "k1-eps10": (1, 0.1, 1500, False, False),
    "k4-eps05-mixed-ties": (4, 0.05, 3000, False, True),
}
RUN_LENGTHS = (1, 7, 64, BATCH)

GOLDEN = {
    "k2-eps05/1": (
        "386639ce2248962732d005c27c891db43f1167177252336345c5511a4ce491c2"
    ),
    "k2-eps05/7": (
        "b42384372ec0268d7033c66c368d63cbff291495778300b46b4de065b45cefdf"
    ),
    "k2-eps05/64": (
        "19d738d3b3052397588f041c93410537b0f778d46ba65c1f6c9bf65219a22133"
    ),
    "k2-eps05/257": (
        "3163c8c6483f264d8946330b2edea630c71291dfa85b9a1c3c164d982b6f5288"
    ),
    "k8-eps02-ladder/1": (
        "16d61427369846972f29e9bf4feab8bbb40e4a350898d54edfcb816b3ed69806"
    ),
    "k8-eps02-ladder/7": (
        "003ce538ae57243da681049fb798eb6be7ba5a735f5629fd7b08022da998109f"
    ),
    "k8-eps02-ladder/64": (
        "72d2e342b38e717a0d97c4e20eba5ef59e1d723cc4e04a341a62a95a1e479d06"
    ),
    "k8-eps02-ladder/257": (
        "74980aa16bd54425dc57a6d1b06f81e7dad3edd2347f32ee8f299e606a212753"
    ),
    "k16-eps30-h0/1": (
        "88572eb31db26288dc1564a8c4f5917d5368c8d5932fc52406918667591ff970"
    ),
    "k16-eps30-h0/7": (
        "24558a95718001d0d5a86892df6516ac240c99f0e8ca12ed5fb78275ec108b86"
    ),
    "k16-eps30-h0/64": (
        "bd556a4670f61de56c880c55c359958d48b5f206a48be9ea82db0f2fc2753044"
    ),
    "k16-eps30-h0/257": (
        "34783e61b06533adec5d8b37ce15bd2dcb2805a2dc2f292504ae103b579535ff"
    ),
    "k5-eps10-flat/1": (
        "21ca8b1f4131ed60b6af91ea95ae9fe8af5d07291473cfea67a19cb7243934c0"
    ),
    "k5-eps10-flat/7": (
        "bb9373152daa531f8ffa5e067cfdf7e5fb27aa36d0c70d53ff9a55c1c7b6c662"
    ),
    "k5-eps10-flat/64": (
        "508297cab425585fdb4cdecb141bc9990d5f8274ae6ba8c19737fd2c67f6270f"
    ),
    "k5-eps10-flat/257": (
        "c21c737459a0bb8ca62d072b16a221ce5537a2514ade159bb66508e568f8ac0a"
    ),
    "k3-eps01-tiny-blocks/1": (
        "260d5ed2bd4cd6f95050552b98ff86c6688228adf0ffa409b6ea2729c271dd15"
    ),
    "k3-eps01-tiny-blocks/7": (
        "595c51d7f55a0223b6239b9ee08496c480acdd560bf06d9dadbbcc741ff09948"
    ),
    "k3-eps01-tiny-blocks/64": (
        "e5d2826d17ff990047666eefefcef0cc1ef72da087d966e6f64fd26d2d90d183"
    ),
    "k3-eps01-tiny-blocks/257": (
        "24417af37d0f5b8c8b58df6161ac6e8cb2377fe48f2189d8752f29fcdc7681b7"
    ),
    "k1-eps10/1": (
        "a84301fcd45bd79f90746cdc019d8637e17e3cca0e92aa2e7d9059bff8f82644"
    ),
    "k1-eps10/7": (
        "639653898f6d5cbbba511c3206d1bf74d485226ab71e3ca1c3b02f4d54e73c52"
    ),
    "k1-eps10/64": (
        "4ebb2be58a3b31195d9ed98fafb4570580e641a3deec9908e990f10849e9751e"
    ),
    "k1-eps10/257": (
        "1a159400afdd88617055453e9444609cdf1bbd8292155894593b03a478e2bd66"
    ),
    "k4-eps05-mixed-ties/1": (
        "b43d2e355774fcc6e5d741a570e47f4481729bad491467b98ca7aa2e8dc5bead"
    ),
    "k4-eps05-mixed-ties/7": (
        "6bcbb0eabebb7486e8858868d416a229a8139e2e9508fae0ab0e3fca8ef899bb"
    ),
    "k4-eps05-mixed-ties/64": (
        "cdc915156e00f6014023b58a44182a0868351520693391189dfc83ff3edbab67"
    ),
    "k4-eps05-mixed-ties/257": (
        "59a55b11440716a281ae5ecc2bb45711102206a4ce5d3140365522e0f13bf48e"
    ),
}

SNAPSHOT_GOLDEN = {
    "k8-eps02-ladder/5003": (
        "949d5c71272b7c2e472106cb1c67ec66c5aaeb1ac8fe47961a3c2bd63e8ecd81"
    ),
}


def make_stream(case_id, run_length):
    """Seeded (site_ids, items): runs of ``run_length`` events per site,
    items drawn from a small range so ties are the common case."""
    k, _, n, _, mixed = CASES[case_id]
    rng = random.Random(f"{case_id}/{run_length}")
    site_ids, items = [], []
    while len(site_ids) < n:
        site = rng.randrange(k)
        for _ in range(min(run_length, n - len(site_ids))):
            site_ids.append(site)
            value = rng.randrange(64) if rng.random() < 0.5 else rng.randrange(10**6)
            if mixed and rng.random() < 0.5:
                value = float(value)  # 3 and 3.0 tie but encode differently
            items.append(value)
    return site_ids, items


def digest(recorder, sites):
    h = hashlib.sha256(recorder.to_bytes())
    h.update(json.dumps([site.rng.getstate() for site in sites]).encode())
    return h.hexdigest()


def scheme_for(case_id):
    _, eps, _, flat, _ = CASES[case_id]
    return RandomizedRankScheme(eps, flat_tree=flat)


def traced_simulation(case_id):
    sim = Simulation(scheme_for(case_id), CASES[case_id][0], seed=SEED)
    return sim, TranscriptRecorder().attach(sim.network)


def run_per_event(case_id, site_ids, items):
    sim, recorder = traced_simulation(case_id)
    for site_id, item in zip(site_ids, items):
        sim.process(site_id, item)
    return digest(recorder, sim.sites)


def run_batched(case_id, site_ids, items):
    sim, recorder = traced_simulation(case_id)
    sim.run_batched(site_ids, items)
    return digest(recorder, sim.sites)


def run_service(case_id, site_ids, items):
    service = TrackingService(num_sites=CASES[case_id][0], seed=SEED)
    job = service.register("job", scheme_for(case_id), seed=SEED)
    recorder = TranscriptRecorder().attach(job.network)
    for lo in range(0, len(site_ids), BATCH):
        service.ingest(site_ids[lo : lo + BATCH], items[lo : lo + BATCH])
    return digest(recorder, job.sites)


def mid_block_service(case_id="k8-eps02-ladder", stop=5003):
    """A rank job stopped at an element count that is a multiple of no
    level's buffer size at (almost) every site."""
    site_ids, items = make_stream(case_id, 7)
    service = TrackingService(num_sites=CASES[case_id][0], seed=SEED)
    service.register("job", scheme_for(case_id), seed=SEED)
    service.ingest(site_ids[:stop], items[:stop])
    return service


def snapshot_digest(service):
    state = service.state_dict()
    for job in state["jobs"]:
        del job["space"]  # sampled high-water marks, not protocol state
    blob = json.dumps(state, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


PAIRS = [(c, r) for c in CASES for r in RUN_LENGTHS]


@pytest.mark.parametrize("case_id,run_length", PAIRS)
def test_every_driving_path_reproduces_the_golden_transcript(
    case_id, run_length
):
    site_ids, items = make_stream(case_id, run_length)
    want = GOLDEN[f"{case_id}/{run_length}"]
    assert run_per_event(case_id, site_ids, items) == want
    assert run_batched(case_id, site_ids, items) == want
    assert run_service(case_id, site_ids, items) == want
    if not CASES[case_id][4]:  # a mixed list would coerce to float64
        arrays = np.asarray(site_ids), np.asarray(items)
        assert run_batched(case_id, *arrays) == want
        assert run_service(case_id, *arrays) == want


def test_cases_cover_the_degenerate_geometries():
    seen = set()
    for k, eps, n, flat, _ in CASES.values():
        n_bar = 1
        while n_bar <= n:
            g = RoundGeometry(n_bar, k, eps, flat)
            seen.add((min(g.block, 4), min(g.height, 3), flat))
            n_bar *= 2
    assert {(1, 0, False), (2, 0, False), (4, 0, False)} <= seen  # h = 0
    assert {(1, 3, False), (2, 3, False), (4, 3, False)} <= seen  # deep trees
    assert any(flat for _, _, flat in seen)


def test_mid_block_snapshot_layout_is_the_parent_commits():
    service = mid_block_service()
    trees = [site.tree for site in service.job("job").sites]
    assert any(
        tree.count % builder.m for tree in trees for builder in tree.builders
    )
    assert snapshot_digest(service) == SNAPSHOT_GOLDEN["k8-eps02-ladder/5003"]


if __name__ == "__main__":
    table = {}
    for case, length in PAIRS:
        table[f"{case}/{length}"] = run_per_event(
            case, *make_stream(case, length)
        )
    print("GOLDEN =", json.dumps(table, indent=4))
    print(
        "SNAPSHOT_GOLDEN =",
        json.dumps({"k8-eps02-ladder/5003": snapshot_digest(mid_block_service())}),
    )
