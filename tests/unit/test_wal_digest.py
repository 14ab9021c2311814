"""WAL byte layout and replay, frozen per item carrier.

The log's segment bytes and the records it replays are pinned (sha256)
for fixed int, float, mixed int/float, bool, big-int, str and tuple
batches.  A batch handed over as typed numpy columns must write exactly
the bytes its plain-list twin writes, and a segment written by an
earlier build (``PINNED_SEGMENT``) must still replay to the same values
of the same Python types.

Run as a script to print a fresh digest table (only for a change that
is *meant* to alter the on-disk layout).
"""

import hashlib
import os

import numpy as np
import pytest

from repro import DeterministicFrequencyScheme, TrackingService
from repro.persistence.wal import WriteAheadLog

N = 40
SITE_IDS = [(i * 5) % 8 for i in range(N)]

BATCHES = {
    "int": [(i * 37) % 1000 for i in range(N)],
    "int-wide": [2**40 + i * 3 for i in range(N)],
    "float": [i * 0.25 + 0.1 for i in range(N - 3)] + [-0.0, 1e300, -2.5e-8],
    "mixed": [i if i % 2 else i + 0.5 for i in range(N)],
    "bool": [i % 3 == 0 for i in range(N)],
    "bigint": [2**70 + i for i in range(N)],
    "str": [f"k{i % 5}" for i in range(N)],
    "tuple": [("t", i % 4) for i in range(N)],
    "unit": None,
}

#: batch kind -> (sha256 of the segment bytes, sha256 of the replay repr)
DIGESTS = {
    'bigint': (
        '9740082de81f446bec1958d9545fbd06eec604992e89954b256b507c10e4cba5',
        '294bf3b60a8ed547271943925022e3b03fd41463a2bf13588f6818a66098fb76',
    ),
    'bool': (
        '2db37f15676e5ebb0417b30a10f4b9275ff9dd109cbcd9bb2e29c36597cb74e2',
        '79cf60b56cc7e0d0aa7dd0dae3a4ba323ddb77fd98185cf1b87e905531956228',
    ),
    'float': (
        '115b667e5aa7a563b35005293b7ba41d9a9e96e2bea32a3b4dabea164cebdb96',
        'cba07e63f522d7c6977d46d8da81cfe26d58b7cddbc586bf572f5a674b9e2b93',
    ),
    'int': (
        'bebce9b847226e409c4db05d0c735c62ca2389db029c514eff9ac8617a7e7fd1',
        '8b249db89776e05f5957561d0334a1fc5f02d3fb0d3c13d5b4e80e445593595b',
    ),
    'int-wide': (
        '3550757dd503e1ec45bebcc5fa7b1fd4bf4247f4bed26899d4c7aaf0a66f4e38',
        'd135d78fb24e08ba975759e10753457273b88328bf62dfc942d1f363e5402001',
    ),
    'mixed': (
        'c38a74e6c4dc806b13e2f57ee82a8d3614d02127e3e5e7a9a5eb1cb43329fa3b',
        'a6477ca1f440fdc85fa51bf29946765e93e37bc21e71f01b4744c19b6b101fc0',
    ),
    'str': (
        '0f4a28c898b079c5a6aa92b35fbae007666d994afa13ac0b0f0bb8623e7a1a5a',
        '734aa858cb011873358c4bc3b94cbc210ec6bd3d37627d960e3cfe1df1856ae5',
    ),
    'tuple': (
        'd0c85c427ae9dcdde06c0d9a28f2a4bf3eb9fdae583ec2e8e479c05dd7475d0b',
        'c37914de2b4ed6f93f1b1ed4fe1963d1fcc01fb3d539f7790c2993c3c21500a4',
    ),
    'unit': (
        '2a7a1c84aeb76a4e3e6269da000b8c983bdb3c9477bde68398bdbfa1c8a54e98',
        '1751535889cf2d2cf39911b69eb0e0bcd96194c70de495825fe9f79b1334c386',
    ),
}

#: typed numpy twins of the columns the carrier rule lifts to arrays
ARRAY_TWINS = {
    "int": np.int64,
    "int-wide": np.int64,
    "float": np.float64,
}

#: a segment an earlier build wrote: one small batch of each kind
PINNED_SEGMENT = (
    b'["batch",0,{"i4":"AAAAAAUAAAACAAAABwAAAAQAAAABAAAA"},{"i4":"AAAAACUAAABKAAAAbwAAAJQAAAC5AAAA"},false]\n'
    b'["batch",1,{"i4":"AAAAAAUAAAACAAAABwAAAAQAAAABAAAA"},{"i8":"AAAAAAABAAADAAAAAAEAAAYAAAAAAQAACQAAAAABAAAMAAAAAAEAAA8AAAAAAQAA"},false]\n'
    b'["batch",2,{"i4":"AAAAAAUAAAACAAAABwAAAAQAAAABAAAA"},[0.1,0.35,0.6,0.85,1.1,1.35],false]\n'
    b'["batch",3,{"i4":"AAAAAAUAAAACAAAABwAAAAQAAAABAAAA"},[0.5,1,2.5,3,4.5,5],false]\n'
    b'["batch",4,{"i4":"AAAAAAUAAAACAAAABwAAAAQAAAABAAAA"},[true,false,false,true,false,false],false]\n'
    b'["batch",5,{"i4":"AAAAAAUAAAACAAAABwAAAAQAAAABAAAA"},[1180591620717411303424,1180591620717411303425,1180591620717411303426,1180591620717411303427,1180591620717411303428,1180591620717411303429],false]\n'
    b'["batch",6,{"i4":"AAAAAAUAAAACAAAABwAAAAQAAAABAAAA"},["k0","k1","k2","k3","k4","k0"],false]\n'
    b'["batch",7,{"i4":"AAAAAAUAAAACAAAABwAAAAQAAAABAAAA"},[{"__tuple__":["t",0]},{"__tuple__":["t",1]},{"__tuple__":["t",2]},{"__tuple__":["t",3]},{"__tuple__":["t",0]},{"__tuple__":["t",1]}],true]\n'
    b'["batch",8,{"i4":"AAAAAAUAAAACAAAABwAAAAQAAAABAAAA"},null,false]\n'
)

#: sha256 of the pinned segment's replay repr
PINNED_REPLAY = '06e95fb349e305f3b5237181bb278dd565fdb6ef165481aea1bff9a9914f8d42'


def _segment_bytes(directory) -> bytes:
    names = sorted(f for f in os.listdir(directory) if f.endswith(".seg"))
    out = b""
    for name in names:
        with open(os.path.join(directory, name), "rb") as f:
            out += f.read()
    return out


def _replay_repr(wal) -> str:
    """The replayed records with every value's type spelled out."""

    def typed(value):
        if isinstance(value, (list, tuple)):
            return [type(value).__name__, [typed(v) for v in value]]
        return [type(value).__name__, repr(value)]

    return repr([typed(record) for record in wal.records()])


def _write(directory, site_ids, items):
    wal = WriteAheadLog(str(directory))
    wal.append_batch(site_ids, items)
    wal.append_batch(site_ids[:3], None if items is None else items[:3])
    data, replay = _segment_bytes(directory), _replay_repr(wal)
    wal.close()
    return data, replay


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _pinned_batches():
    return [
        (SITE_IDS[:6], None if items is None else items[:6])
        for items in BATCHES.values()
    ]


@pytest.mark.parametrize("kind", sorted(BATCHES))
def test_segment_bytes_and_replay_are_pinned(kind, tmp_path):
    items = BATCHES[kind]
    data, replay = _write(tmp_path, SITE_IDS, items)
    assert (_sha(data), _sha(replay)) == DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(ARRAY_TWINS))
def test_typed_columns_write_the_list_bytes(kind, tmp_path):
    items = BATCHES[kind]
    as_list = _write(tmp_path / "list", SITE_IDS, items)
    as_array = _write(
        tmp_path / "array",
        np.asarray(SITE_IDS, dtype=np.int64),
        np.asarray(items, dtype=ARRAY_TWINS[kind]),
    )
    assert as_array == as_list


def test_unit_stream_from_an_id_array_writes_the_list_bytes(tmp_path):
    as_list = _write(tmp_path / "list", SITE_IDS, None)
    as_array = _write(
        tmp_path / "array", np.asarray(SITE_IDS, dtype=np.int64), None
    )
    assert as_array == as_list


def test_pinned_segment_is_what_this_build_writes(tmp_path):
    wal = WriteAheadLog(str(tmp_path))
    for site_ids, items in _pinned_batches():
        wal.append_batch(site_ids, items)
    wal.close()
    assert _segment_bytes(tmp_path) == PINNED_SEGMENT


def test_pinned_segment_replays_identically(tmp_path):
    with open(tmp_path / "wal-000000000000.seg", "wb") as f:
        f.write(PINNED_SEGMENT)
    wal = WriteAheadLog(str(tmp_path))
    assert _sha(_replay_repr(wal)) == PINNED_REPLAY
    records = list(wal.records())
    assert [r[2:] for r in records] == [list(b) for b in _pinned_batches()]
    wal.close()


def test_service_wal_is_the_same_for_list_and_array_ingest(tmp_path):
    def run(directory, as_array):
        service = TrackingService(
            num_sites=8, seed=3, checkpoint_dir=str(directory)
        )
        service.register("hot", DeterministicFrequencyScheme(0.1))
        for kind in ("int", "float", "mixed", "str"):
            site_ids, items = SITE_IDS, BATCHES[kind]
            if as_array and kind in ARRAY_TWINS:
                site_ids = np.asarray(site_ids, dtype=np.int64)
                items = np.asarray(items, dtype=ARRAY_TWINS[kind])
            service.ingest(site_ids, items)
        service.close()
        return _segment_bytes(directory / "wal")

    as_list = run(tmp_path / "list", False)
    assert as_list
    assert run(tmp_path / "array", True) == as_list


@pytest.mark.parametrize(
    "items",
    [
        [np.int64(v) for v in range(40)],
        [np.int32(3), 5] * 20,
        [np.uint64(2**64 - 1)] * 40,  # beyond int64: logged as exact ints
    ],
    ids=["int64", "int32-and-int", "uint64-beyond-int64"],
)
def test_numpy_int_scalars_in_a_list_log_as_exact_ints(items, tmp_path):
    """Durability does not decide what a batch may hold: a plain list of
    numpy integer scalars is accepted with and without a WAL, and logged
    as the Python ints it equals."""
    site_ids = [i % 8 for i in range(len(items))]
    answers = []
    for directory in (None, tmp_path / "numpy", tmp_path / "ints"):
        service = TrackingService(
            num_sites=8, seed=3,
            checkpoint_dir=None if directory is None else str(directory),
        )
        service.register("hot", DeterministicFrequencyScheme(0.1))
        batch = items if directory != tmp_path / "ints" else list(
            map(int, items)
        )
        assert service.ingest(site_ids, batch) == len(items)
        answers.append(service.query("hot", "estimate_frequency", items[0]))
        service.close()
    assert answers[0] == answers[1] == answers[2]
    assert _segment_bytes(tmp_path / "numpy" / "wal") == _segment_bytes(
        tmp_path / "ints" / "wal"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    print("DIGESTS = {")
    for kind in sorted(BATCHES):
        with tempfile.TemporaryDirectory() as d:
            data, replay = _write(d, SITE_IDS, BATCHES[kind])
        print(f"    {kind!r}: (\n        {_sha(data)!r},\n"
              f"        {_sha(replay)!r},\n    ),")
    print("}")
    with tempfile.TemporaryDirectory() as d:
        wal = WriteAheadLog(d)
        for site_ids, items in _pinned_batches():
            wal.append_batch(site_ids, items)
        print("PINNED_SEGMENT = (")
        for line in _segment_bytes(d).splitlines(keepends=True):
            print(f"    {line!r}")
        print(")")
        print(f"PINNED_REPLAY = {_sha(_replay_repr(wal))!r}")
        wal.close()
