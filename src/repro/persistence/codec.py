"""Versioned snapshot codec: protocol state <-> JSON-safe dicts.

Every protocol component in this library keeps its state in plain Python
containers — ints, floats, strings, lists, tuples, dicts (sometimes with
tuple keys), deques, ``random.Random`` generators and nested helper
objects (``LocalDoubler``, ``StickySampler``, ``QuantileSketchBuilder``,
...).  The codec turns any such object graph into a JSON-serializable
tree and back, preserving two properties that matter for deterministic
replay:

* **RNG streams** round-trip exactly (``random.Random`` internal state
  is captured verbatim), so a restored component continues drawing the
  same random sequence the original would have drawn.
* **Shared references** are preserved: if a site and its chunk tree hold
  the *same* ``Random`` instance, the restored objects share one
  instance too (encoded once, referenced afterwards — the same memo
  trick pickle uses).  Without this, an aliased generator would fork
  into independent copies and the transcript would diverge.

Restoration is a *merge*: ``load_object_state`` fills state into an
already-constructed component (fresh from its scheme factory), so wiring
that is rebuilt by constructors — network references, bound sites —
stays intact and is never serialized.  Classes opt attributes out of
snapshots with a ``_persist_transient_`` tuple (e.g. ``Site`` excludes
``network``); everything else in ``__dict__``/``__slots__`` is state.
A class whose working representation differs from its encoded layout
defines ``_persist_state_()`` (the ``{name: value}`` mapping to encode in
place of its attributes) and ``_persist_restored_()`` (called once the
decoded attributes are set, to rebuild the working representation or
refuse the snapshot with :class:`StateCodecError`).

Only classes defined under the ``repro`` package are encoded; anything
else is a bug in the caller and raises immediately rather than producing
a snapshot that cannot be restored.  The one exception is a typed
column — a 1-D int/float numpy array, what the carrier rule
(:func:`repro.runtime.batching.as_column`: all Python ints within int64
-> ``int64``, all floats -> ``float64``, anything else a list) makes of
an event column or a rank table: it is a leaf, encoded and decoded as
itself without walking its elements, and the frame codec ships it with
one ``tobytes``.  (A tree holding one is frame-safe, not JSON-safe;
protocol state never holds one.)
"""

from __future__ import annotations

import importlib
import math
import random
from collections import deque

import numpy as _np

__all__ = [
    "StateEncoder",
    "StateDecoder",
    "StateCodecError",
    "PersistableState",
    "object_state",
    "load_object_state",
    "encode_value",
    "decode_value",
]

#: bump when the encoded layout changes incompatibly
CODEC_VERSION = 1

_SCALARS = (bool, int, float, str, type(None))

# Tag keys.  Every non-scalar container is a dict with exactly one of
# these reserved keys, so raw JSON objects never collide with tags
# (plain dicts are themselves encoded through TAG_DICT pair lists).
TAG_TUPLE = "__tuple__"
TAG_NTUPLE = "__ntuple__"
TAG_SET = "__set__"
TAG_FROZENSET = "__frozenset__"
TAG_DEQUE = "__deque__"
TAG_DICT = "__dict__"
TAG_RNG = "__rng__"
TAG_OBJ = "__obj__"
TAG_REF = "__ref__"
TAG_FLOAT = "__float__"


class StateCodecError(TypeError):
    """A value in a component's state cannot be snapshotted."""


def _is_column(value) -> bool:
    """A 1-D int/float ndarray: an event column or rank table column
    (see :func:`repro.runtime.batching.as_column`), encoded as itself."""
    return (
        isinstance(value, _np.ndarray)
        and value.ndim == 1
        and value.dtype.kind in "iuf"
    )


def _transient_names(cls) -> frozenset:
    """Union of ``_persist_transient_`` tuples along the MRO."""
    names = set()
    for klass in cls.__mro__:
        names.update(getattr(klass, "_persist_transient_", ()))
    return frozenset(names)


def _state_attrs(obj) -> list:
    """(name, value) pairs of an object's persistent attributes.

    Covers ``__dict__`` (in insertion order, which is deterministic per
    class) and any ``__slots__`` along the MRO, minus transient names —
    unless the class names its own encoded layout with
    ``_persist_state_()``.
    """
    custom = getattr(obj, "_persist_state_", None)
    if custom is not None:
        return list(custom().items())
    transient = _transient_names(type(obj))
    out = []
    seen = set()
    for name, value in getattr(obj, "__dict__", {}).items():
        if name not in transient:
            out.append((name, value))
            seen.add(name)
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if name in seen or name in transient or name == "__dict__":
                continue
            if hasattr(obj, name):
                out.append((name, getattr(obj, name)))
                seen.add(name)
    return out


def _type_tag(cls) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_type(tag: str):
    module_name, _, qualname = tag.partition(":")
    if not (module_name == "repro" or module_name.startswith("repro.")):
        raise StateCodecError(f"refusing to resolve non-repro type {tag!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class StateEncoder:
    """Encode an object graph into a JSON-safe tree.

    One encoder instance = one snapshot scope: objects and RNGs shared
    across everything encoded through it are written once and referenced
    afterwards.
    """

    def __init__(self):
        self._memo = {}  # id(obj) -> ref index
        self._keep = []  # keep encoded objects alive so ids stay unique
        self._next_ref = 0

    def _remember(self, obj) -> int:
        ref = self._next_ref
        self._next_ref += 1
        self._memo[id(obj)] = ref
        self._keep.append(obj)
        return ref

    def encode(self, value):
        if isinstance(value, float):
            # bool/int/str/None pass through; floats need the non-finite
            # escape (JSON has no inf/nan).
            if math.isfinite(value):
                return value
            return {TAG_FLOAT: repr(value)}
        if isinstance(value, _SCALARS):
            return value
        if isinstance(value, list):
            return [self.encode(v) for v in value]
        if isinstance(value, tuple):
            cls = type(value)
            if (
                cls is not tuple
                and cls.__module__.split(".", 1)[0] == "repro"
            ):
                # repro-defined tuple subclasses (e.g. the protocol
                # Message namedtuple, which rides *inside* payloads when
                # schemes wrap each other) keep their class, so decoding
                # rebuilds a real Message, not an anonymous triple.
                return {
                    TAG_NTUPLE: _type_tag(cls),
                    "values": [self.encode(v) for v in value],
                }
            return {TAG_TUPLE: [self.encode(v) for v in value]}
        if isinstance(value, dict):
            return {
                TAG_DICT: [
                    [self.encode(k), self.encode(v)] for k, v in value.items()
                ]
            }
        if isinstance(value, deque):
            return {TAG_DEQUE: [self.encode(v) for v in value]}
        if isinstance(value, (set, frozenset)):
            tag = TAG_FROZENSET if isinstance(value, frozenset) else TAG_SET
            # Order the *elements* before encoding (not the encoded
            # forms): memo refs are assigned in encode order, so a
            # definition always precedes its references, and the output
            # does not depend on set-iteration order.
            return {tag: [self.encode(v) for v in sorted(value, key=repr)]}
        if isinstance(value, random.Random):
            ref = self._memo.get(id(value))
            if ref is not None:
                return {TAG_REF: ref}
            version, internal, gauss = value.getstate()
            return {
                TAG_RNG: self._remember(value),
                "state": [version, list(internal), gauss],
            }
        if _is_column(value):
            return value  # a leaf: the frame codec ships it by tobytes
        if type(value).__module__.split(".", 1)[0] == "repro":
            ref = self._memo.get(id(value))
            if ref is not None:
                return {TAG_REF: ref}
            ref = self._remember(value)
            state = {
                name: self.encode(v) for name, v in _state_attrs(value)
            }
            return {TAG_OBJ: _type_tag(type(value)), "id": ref, "state": state}
        raise StateCodecError(
            f"cannot snapshot {type(value).__module__}.{type(value).__qualname__}"
        )


class StateDecoder:
    """Decode a JSON-safe tree, merging into live objects where possible.

    ``merge(target, encoded)`` returns the restored value.  When
    ``target`` is an existing object of the encoded type, state is loaded
    *into* it (preserving constructor-built wiring such as network
    references) and the object itself is returned; otherwise a fresh
    instance is built via ``__new__`` and filled.  Shared references
    resolve to one restored object either way.
    """

    def __init__(self):
        self._by_ref = {}

    def merge(self, target, encoded):
        if isinstance(encoded, _SCALARS):
            return encoded
        if isinstance(encoded, list):
            if (
                isinstance(target, list)
                and len(target) == len(encoded)
            ):
                # Elementwise merge: keeps constructor-built element
                # objects (e.g. a boosted site's inner sites) alive.
                return [self.merge(t, e) for t, e in zip(target, encoded)]
            return [self.merge(None, e) for e in encoded]
        if not isinstance(encoded, dict):
            if _is_column(encoded):
                return encoded
            raise StateCodecError(f"malformed snapshot node: {encoded!r}")
        if TAG_FLOAT in encoded:
            return float(encoded[TAG_FLOAT])
        if TAG_REF in encoded:
            return self._by_ref[encoded[TAG_REF]]
        if TAG_TUPLE in encoded:
            return tuple(self.merge(None, e) for e in encoded[TAG_TUPLE])
        if TAG_NTUPLE in encoded:
            cls = _resolve_type(encoded[TAG_NTUPLE])
            return cls(*(self.merge(None, e) for e in encoded["values"]))
        if TAG_DEQUE in encoded:
            return deque(self.merge(None, e) for e in encoded[TAG_DEQUE])
        if TAG_SET in encoded:
            return {self.merge(None, e) for e in encoded[TAG_SET]}
        if TAG_FROZENSET in encoded:
            return frozenset(
                self.merge(None, e) for e in encoded[TAG_FROZENSET]
            )
        if TAG_DICT in encoded:
            out = {}
            source = target if isinstance(target, dict) else {}
            for enc_key, enc_value in encoded[TAG_DICT]:
                key = self.merge(None, enc_key)
                out[key] = self.merge(source.get(key), enc_value)
            return out
        if TAG_RNG in encoded:
            rng = target if isinstance(target, random.Random) else random.Random()
            version, internal, gauss = encoded["state"]
            rng.setstate((version, tuple(internal), gauss))
            self._by_ref[encoded[TAG_RNG]] = rng
            return rng
        if TAG_OBJ in encoded:
            cls = _resolve_type(encoded[TAG_OBJ])
            obj = target if isinstance(target, cls) else cls.__new__(cls)
            self._by_ref[encoded["id"]] = obj
            for name, enc_value in encoded["state"].items():
                current = getattr(obj, name, None)
                setattr(obj, name, self.merge(current, enc_value))
            restored = getattr(obj, "_persist_restored_", None)
            if restored is not None:
                restored()
            return obj
        raise StateCodecError(f"unknown snapshot tag in {sorted(encoded)!r}")


def object_state(obj) -> dict:
    """Snapshot one component into a JSON-safe dict (fresh scope)."""
    return StateEncoder().encode(obj)


def load_object_state(obj, state) -> None:
    """Restore a component in place from :func:`object_state` output."""
    decoder = StateDecoder()
    restored = decoder.merge(obj, state)
    if restored is not obj:
        raise StateCodecError(
            f"state is for {state.get(TAG_OBJ)!r}, not {type(obj).__qualname__}"
        )


class PersistableState:
    """Inheritable ``state_dict`` / ``load_state_dict`` pair.

    Mixed into sketches and protocol helpers so every stateful building
    block exposes the same two persistence hooks the runtime base
    classes define.  The codec itself reflects over attributes (it does
    not call these hooks when recursing), so inheriting adds the public
    API without changing the encoded layout.
    """

    def state_dict(self) -> dict:
        """Snapshot this component's state (JSON-safe, versioned)."""
        return object_state(self)

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` in place."""
        load_object_state(self, state)


def encode_value(value):
    """Encode a standalone value (fresh scope); see :class:`StateEncoder`."""
    return StateEncoder().encode(value)


def decode_value(encoded):
    """Inverse of :func:`encode_value` for values without live targets."""
    return StateDecoder().merge(None, encoded)
