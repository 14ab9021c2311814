"""The binary envelope's bytes for list payloads, frozen.

List-origin numeric bulk — protocol payloads, shipped summaries, small
site-actor chunks — must encode to exactly the bytes an earlier build
produced: the same blob widths, the same size-gate decisions (JSON when
small numbers render tighter) and the same JSON for everything that is
not packed.  Each case's sha256 is pinned, and every case must decode
back to the original lists.

Run as a script to print a fresh table (only for a change that is
*meant* to alter the wire layout).
"""

import hashlib
import random

import pytest

from repro.net.frames import decode_payload, encode_payload


def _cases():
    rng = random.Random(7)
    i64 = (1 << 63) - 1
    return {
        "u1": list(range(200)),
        "u1-single-digits": [i % 10 for i in range(64)],
        "u1-gate-wins-json": [i % 10 for i in range(20)],
        "i2-negative": [-(i * 37) % 30000 - 100 for i in range(100)],
        "i4": [(i * 7919) * 1000 for i in range(80)],
        "i8-extremes": [i64, -i64 - 1, 0, -1, 1] * 5,
        "powers-of-ten": [
            sign * 10**e for sign in (1, -1) for e in range(19)
        ],
        "bigint-stays-json": [1 << 70] * 20,
        "u8-beyond-i8": [(1 << 63) + i for i in range(20)],
        "float": [rng.random() for _ in range(50)],
        "float-short": [float(i % 4) for i in range(40)],
        "float-specials": [0.0, -0.0, 1e300, 5e-324, 2.5] * 4,
        "mixed": [1, 2.5] * 20,
        "bools": [True, False] * 20,
        "strings": [f"s{i}" for i in range(30)],
        "tuple-of-ints": tuple(range(1000, 1040)),
        "nested": {
            "runs": [list(range(500, 600)), ["a", "b"], []],
            "summary": {"values": list(range(3000, 3100)),
                        "weights": [2.5] * 100},
            "short": list(range(15)),
            "none": None,
        },
        "collision": {"__wblob__": [0, "i8"], "data": list(range(300, 400))},
    }


DIGESTS = {
    'bigint-stays-json': (
        '486fe7277f485286a399e8fcde328bca2bbb3e389a26a96c4e1096fe77f84e02'
    ),
    'bools': (
        '0f6c366682e9979defa39a298e397128de4e1a40badc16cc38b674e8cefb4d4f'
    ),
    'collision': (
        '885d28204cafb83c8fe8408832eca2a96454f3993117a4a8c4f17d9a4a48bd73'
    ),
    'float': (
        'e52fd5a114c0987aea1df336835f5235e8f99016a630ca0116a4d6f0d840817f'
    ),
    'float-short': (
        '28f168b922064e624041a0bdf3fd89dfa44e769d8c2c84f112eb4be633bb7c07'
    ),
    'float-specials': (
        '3c0f375614832aa03cf5576300b67320b4e685b8f1df91f927eaffa859055582'
    ),
    'i2-negative': (
        '032e60ad05d1105442107c76d8ae74b7dfa8f1923a9d0c40f553e43932ec1e2c'
    ),
    'i4': (
        '7c617d2c82cdbed8858e555ee9d4367dfd3e252e47b6e933abb441a59c39fe4c'
    ),
    'i8-extremes': (
        '520a6694437d2307bf513bb56039ee67cab7be36ad64b52069fd209bf3ad467b'
    ),
    'mixed': (
        '5c2f640ba251e6cc248567ac2d3cf6097781919fdd22e74445ffd64851188e65'
    ),
    'nested': (
        '9731d93aefb32c5192c9039e7b8f1522b621865677ed66059463edcfdcdc4d38'
    ),
    'powers-of-ten': (
        'e562030e6ab15991a2f69b19f346106bc35c371b1d8e4c36a807c2add35ee718'
    ),
    'strings': (
        '63bc820ca7cb0b3752916d1ac95b140fbf7359a258123d2ef4b3470bb0643e61'
    ),
    'tuple-of-ints': (
        '9b0004f1ea67cbda8299624b891867d1abe9231d9d759f85f0f2bb29ebcbf5aa'
    ),
    'u1': (
        'f059bd5af4b0ed732ea672cc6acad597516c4a7c5161d9b75c5e4c902a417ec1'
    ),
    'u1-gate-wins-json': (
        '2f873a0ec7321d95e7153f2ada2f84b3b9f52761f9ad5225ecd8eefd4de0f936'
    ),
    'u1-single-digits': (
        '3e1ab4d6e290d03d8d8739ef569e08f4d3f33cc317ebdb3d2de2fd1f788136f2'
    ),
    'u8-beyond-i8': (
        '0d182c66a75139e6c1486bf7b77b7b8e80dd017f697b84b05cd224307517b4ba'
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plain(value):
    """What a decoded payload should equal: tuples come back as lists."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("name", sorted(_cases()))
def test_list_payload_bytes_are_pinned(name):
    value = _cases()[name]
    payload = encode_payload({"t": "op", "v": value})
    assert _sha(payload) == DIGESTS[name]
    decoded = decode_payload(payload)["v"]
    assert repr(decoded) == repr(_plain(value))


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("DIGESTS = {")
    for name, value in sorted(_cases().items()):
        digest = _sha(encode_payload({"t": "op", "v": value}))
        print(f"    {name!r}: (\n        {digest!r}\n    ),")
    print("}")
