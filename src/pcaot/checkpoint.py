"""Binary checkpoint format and tolerance-aware state comparison.

Wire layout, all integers little-endian regardless of host:

    magic "PCAO" | u32 version (currently 1) | u32 record count
    per record:
        u16 name length | name bytes (UTF-8)
        u8 type tag (0=i8, 1=i32, 2=i64, 3=f32, 4=f64)
        u8 rank | rank x u64 extents
        payload: row-major elements, little-endian
    terminator byte 0xFF

An empty checkpoint is exactly 13 bytes.  Capture programs write
"<section_id>.in.ckpt" and "<section_id>.out.ckpt"; replay drivers read the
former and write the latter into their own scratch directory.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO

import numpy as np

from .errors import ParseError, PcaotError
from .sections import ELEM_SIZES, ELEM_TYPES, StateManifest

MAGIC = b"PCAO"
WIRE_VERSION = 1
TERMINATOR = b"\xff"
EMPTY_CHECKPOINT_SIZE = 13

TYPE_TAGS = {"i8": 0, "i32": 1, "i64": 2, "f32": 3, "f64": 4}
TAG_TYPES = {tag: name for name, tag in TYPE_TAGS.items()}
FLOAT_TYPES = ("f32", "f64")

# Explicit little-endian dtypes so payload bytes match the wire on any host.
NUMPY_DTYPES = {"i8": "<i1", "i32": "<i4", "i64": "<i8", "f32": "<f4", "f64": "<f8"}

# Elements compare walks at a time.
BLOCK = 1 << 16


class BadMagic(PcaotError):
    """Leading bytes are not the checkpoint magic."""


class UnsupportedVersion(PcaotError):
    """Version field is not a version this codec understands."""


class TruncatedPayload(PcaotError):
    """The byte stream ends before the structure it promises."""


class UnknownTypeTag(PcaotError):
    """A record carries a type tag outside the supported range."""


@dataclass(frozen=True)
class VarRecord:
    """One named, typed, shaped payload inside a checkpoint."""

    name: str
    elem_type: str
    extents: tuple[int, ...]
    payload: bytes

    def __post_init__(self) -> None:
        if self.elem_type not in ELEM_TYPES:
            raise UnknownTypeTag(f"record {self.name!r}: unknown element type {self.elem_type!r}")
        expected = self.element_count * ELEM_SIZES[self.elem_type]
        if len(self.payload) != expected:
            raise ParseError(
                f"record {self.name!r}: payload is {len(self.payload)} bytes, "
                f"extents require {expected}"
            )

    @property
    def element_count(self) -> int:
        return math.prod(self.extents) if self.extents else 1

    @classmethod
    def from_values(cls, name: str, elem_type: str, values, extents: tuple[int, ...] | None = None) -> "VarRecord":
        """Build a record from array-like values; extents default to the value shape."""
        arr = np.asarray(values, dtype=NUMPY_DTYPES[elem_type])
        if extents is None:
            extents = tuple(int(d) for d in arr.shape)
        else:
            arr = arr.reshape(extents)
        return cls(name=name, elem_type=elem_type, extents=extents, payload=arr.tobytes())

    def values(self) -> np.ndarray:
        """Decode the payload to a numpy array shaped by the extents."""
        arr = np.frombuffer(self.payload, dtype=NUMPY_DTYPES[self.elem_type])
        return arr.reshape(self.extents) if self.extents else arr.reshape(())


@dataclass(frozen=True)
class Checkpoint:
    """An ordered collection of variable records."""

    records: tuple[VarRecord, ...] = ()
    version: int = WIRE_VERSION

    def __post_init__(self) -> None:
        names = [r.name for r in self.records]
        if len(set(names)) != len(names):
            raise ParseError("checkpoint records must have unique names")

    def record(self, name: str) -> VarRecord | None:
        for rec in self.records:
            if rec.name == name:
                return rec
        return None


# A header as (field, wire bytes) pairs, in wire order.
HeaderFields = tuple[tuple[str, bytes], ...]


def file_header(record_count: int, version: int = WIRE_VERSION) -> HeaderFields:
    """The fields before a checkpoint's first record: magic, version and record count."""
    return (
        ("magic", MAGIC),
        ("version", struct.pack("<I", version)),
        ("count", struct.pack("<I", record_count)),
    )


def record_header(name: str, elem_type: str, extents: tuple[int, ...]) -> HeaderFields:
    """The fields before a record's payload: the name (its length, then its
    bytes), the type tag, the rank and each extent.

    encode writes these bytes, and the generated C reader and writer compare
    against or write them (pcaot.instrument), so the two codecs share them.
    """
    name_bytes = name.encode("utf-8")
    return (
        ("name", struct.pack("<H", len(name_bytes))),
        ("name", name_bytes),
        ("type", struct.pack("<B", TYPE_TAGS[elem_type])),
        ("rank", struct.pack("<B", len(extents))),
        *(("extent", struct.pack("<Q", extent)) for extent in extents),
    )


def encode(checkpoint: Checkpoint) -> bytes:
    """Serialize a checkpoint to wire bytes."""
    parts = [data for _, data in file_header(len(checkpoint.records), checkpoint.version)]
    for rec in checkpoint.records:
        parts.extend(data for _, data in record_header(rec.name, rec.elem_type, rec.extents))
        parts.append(rec.payload)
    parts.append(TERMINATOR)
    return b"".join(parts)


class _Cursor:
    """Bounds-checked reader over a binary stream that holds size bytes of wire data."""

    def __init__(self, stream: BinaryIO, size: int) -> None:
        self.stream = stream
        self.remaining = size

    def take(self, count: int, what: str) -> bytes:
        # Checked before the read, so a header that claims more bytes than
        # remain allocates nothing.
        if count > self.remaining:
            raise TruncatedPayload(
                f"checkpoint ends inside {what}: wanted {count} bytes, {self.remaining} remain"
            )
        chunk = self.stream.read(count)
        if len(chunk) != count:
            raise TruncatedPayload(f"checkpoint ends inside {what}: the file shrank while read")
        self.remaining -= count
        return chunk


def decode(data: bytes) -> Checkpoint:
    """Parse wire bytes back into a Checkpoint.

    Raises BadMagic, UnsupportedVersion, UnknownTypeTag, TruncatedPayload,
    or ParseError for a record name that is not UTF-8.
    """
    return _decode(_Cursor(io.BytesIO(data), len(data)))


def _decode(cur: _Cursor) -> Checkpoint:
    """decode, reading the wire data through cur."""
    magic = cur.take(4, "magic")
    if magic != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, found {magic!r}")
    version, count = struct.unpack("<II", cur.take(8, "header"))
    if version != WIRE_VERSION:
        raise UnsupportedVersion(f"version {version} is not supported")
    records = []
    for index in range(count):
        (name_len,) = struct.unpack("<H", cur.take(2, f"record {index} name length"))
        try:
            name = cur.take(name_len, f"record {index} name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"record {index} name is not UTF-8: {exc}") from exc
        tag, rank = struct.unpack("<BB", cur.take(2, f"record {name!r} type/rank"))
        if tag not in TAG_TYPES:
            raise UnknownTypeTag(f"record {name!r}: type tag {tag}")
        extents = struct.unpack(f"<{rank}Q", cur.take(8 * rank, f"record {name!r} extents")) if rank else ()
        elem_type = TAG_TYPES[tag]
        nbytes = ELEM_SIZES[elem_type] * (math.prod(extents) if extents else 1)
        payload = cur.take(nbytes, f"record {name!r} payload")
        records.append(VarRecord(name=name, elem_type=elem_type, extents=tuple(int(e) for e in extents), payload=payload))
    terminator = cur.take(1, "terminator")
    if terminator != TERMINATOR:
        raise TruncatedPayload(f"expected terminator 0xFF, found {terminator!r}")
    if cur.remaining:
        raise TruncatedPayload(f"{cur.remaining} trailing bytes after terminator")
    return Checkpoint(records=tuple(records), version=version)


class ComparisonStatus(Enum):
    PASS = "Pass"
    NUMERIC_MISMATCH = "NumericMismatch"
    MISSING_VARIABLE = "MissingVariable"
    SHAPE_MISMATCH = "ShapeMismatch"
    TYPE_MISMATCH = "TypeMismatch"


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative float tolerance; integers are always compared exactly."""

    abs: float = 0.0
    rel: float = 1e-6

    def __post_init__(self) -> None:
        for label, value in (("abs", self.abs), ("rel", self.rel)):
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
                raise ParseError(f"tolerance {label} must be finite and non-negative")


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing one candidate checkpoint against the reference.

    worst_abs_err / worst_rel_err are maxima over all compared float
    elements (passing ones included); offending names the failing element
    with the largest absolute error, as (variable name, flat index).
    """

    status: ComparisonStatus
    worst_abs_err: float = 0.0
    worst_rel_err: float = 0.0
    offending: tuple[str, int] | None = None

    def __post_init__(self) -> None:
        if self.status is ComparisonStatus.PASS and self.offending is not None:
            raise ParseError("a passing report cannot name an offending element")


def _float_errors(
    ref: np.ndarray, cand: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-element (abs_err, rel_err, failing) of two float blocks.

    Equal elements, infinities included, have zero error, and so does NaN
    against NaN; NaN against a number has infinite error.  Relative error
    is against the reference magnitude; one that is NaN (inf / inf) is
    infinite.  An element fails when its abs_err exceeds tol.abs +
    tol.rel * |ref|, or, for a NaN reference, when it is not zero.
    """
    ref = ref.astype(np.float64, copy=False)
    cand = cand.astype(np.float64, copy=False)
    nan_ref = np.isnan(ref)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        abs_err = np.abs(ref - cand)
        abs_err[np.isnan(abs_err)] = np.inf
        abs_err[(ref == cand) | (nan_ref & np.isnan(cand))] = 0.0
        denom = np.abs(ref)
        rel_err = abs_err / denom
        allowed = tol.abs + tol.rel * denom
    rel_err[abs_err == 0.0] = 0.0
    rel_err[np.isnan(rel_err)] = np.inf
    allowed[nan_ref] = 0.0
    return abs_err, rel_err, abs_err > allowed


def compare(
    reference: Checkpoint,
    candidate: Checkpoint,
    manifest: StateManifest,
    tol: Tolerance = Tolerance(),
) -> ComparisonReport:
    """Compare candidate output state against the reference.

    Only out/inout manifest variables participate.  Integer elements must be
    bit-equal; a float element passes iff |ref - cand| <= tol.abs +
    tol.rel * |ref|, with NaN matching NaN.  Status precedence:
    MissingVariable > ShapeMismatch > TypeMismatch > NumericMismatch.
    A variable whose candidate payload bytes equal the reference's is
    skipped without float math: each of its elements has zero error (an
    inf or a NaN against its own bits changes no worst error either).
    Bytes that differ, -0.0 against 0.0 included, are compared in full.

    The reference must contain every out/inout manifest variable; a
    reference that does not is a caller error and raises ValueError.
    """
    checked = manifest.outputs
    ref_map = {r.name: r for r in reference.records}
    cand_map = {r.name: r for r in candidate.records}
    for var in checked:
        if var.name not in ref_map:
            raise ValueError(f"reference checkpoint lacks manifest variable {var.name!r}")

    for var in checked:
        if var.name not in cand_map:
            return ComparisonReport(
                status=ComparisonStatus.MISSING_VARIABLE, offending=(var.name, 0)
            )
    for var in checked:
        if cand_map[var.name].extents != var.extents:
            return ComparisonReport(
                status=ComparisonStatus.SHAPE_MISMATCH, offending=(var.name, 0)
            )
    for var in checked:
        if cand_map[var.name].elem_type != var.elem_type:
            return ComparisonReport(
                status=ComparisonStatus.TYPE_MISMATCH, offending=(var.name, 0)
            )

    # Each differing variable is walked in blocks of BLOCK elements, so the
    # float64 temporaries stay bounded; the first index of the largest
    # failing error is the offender, replaced only by a strictly larger one.
    worst_abs = 0.0
    worst_rel = 0.0
    offender: tuple[str, int] | None = None
    offender_err = -math.inf
    for var in checked:
        ref_rec, cand_rec = ref_map[var.name], cand_map[var.name]
        if ref_rec.payload == cand_rec.payload and ref_rec.elem_type == cand_rec.elem_type:
            continue
        ref_vals = ref_rec.values().ravel()
        cand_vals = cand_rec.values().ravel()
        for start in range(0, ref_vals.size, BLOCK):
            ref_block = ref_vals[start : start + BLOCK]
            cand_block = cand_vals[start : start + BLOCK]
            if var.elem_type in FLOAT_TYPES:
                abs_err, rel_err, failing = _float_errors(ref_block, cand_block, tol)
                worst_abs = max(worst_abs, float(abs_err.max()))
                worst_rel = max(worst_rel, float(rel_err.max()))
            else:
                failing = ref_block != cand_block
                if not failing.any():
                    continue
                abs_err = np.abs(ref_block.astype(np.float64) - cand_block.astype(np.float64))
            fail_idx = np.flatnonzero(failing)
            if fail_idx.size:
                best = fail_idx[int(np.argmax(abs_err[fail_idx]))]
                if float(abs_err[best]) > offender_err:
                    offender_err = float(abs_err[best])
                    offender = (var.name, start + int(best))

    if offender is not None:
        return ComparisonReport(
            status=ComparisonStatus.NUMERIC_MISMATCH,
            worst_abs_err=worst_abs,
            worst_rel_err=worst_rel,
            offending=offender,
        )
    return ComparisonReport(
        status=ComparisonStatus.PASS, worst_abs_err=worst_abs, worst_rel_err=worst_rel
    )


def write_checkpoint_file(path, checkpoint: Checkpoint) -> None:
    with open(path, "wb") as handle:
        handle.write(encode(checkpoint))


def read_checkpoint_file(path) -> Checkpoint:
    """decode the file at path, reading each payload straight from the file."""
    with open(path, "rb") as handle:
        return _decode(_Cursor(handle, os.fstat(handle.fileno()).st_size))
