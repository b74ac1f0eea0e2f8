import dataclasses
import math
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcaot import checkpoint
from pcaot.checkpoint import (
    EMPTY_CHECKPOINT_SIZE,
    BadMagic,
    Checkpoint,
    ComparisonReport,
    ComparisonStatus,
    Tolerance,
    TruncatedPayload,
    UnknownTypeTag,
    UnsupportedVersion,
    VarRecord,
    compare,
    decode,
    encode,
    file_header,
    read_checkpoint_file,
    record_header,
    write_checkpoint_file,
)
from pcaot.errors import ParseError, PcaotError
from pcaot.sections import StateManifest, VariableSpec

TAGS = {"i8": 0, "i32": 1, "i64": 2, "f32": 3, "f64": 4}
SIZES = {"i8": 1, "i32": 4, "i64": 8, "f32": 4, "f64": 8}


def oracle_encode(records):
    """Independent encoder, struct built record by record."""
    blob = b"PCAO" + struct.pack("<II", 1, len(records))
    for name, elem_type, extents, payload in records:
        encoded_name = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded_name)) + encoded_name
        blob += struct.pack("<BB", TAGS[elem_type], len(extents))
        for extent in extents:
            blob += struct.pack("<Q", extent)
        blob += payload
    return blob + b"\xff"


def test_empty_checkpoint_is_13_bytes():
    blob = encode(Checkpoint())
    assert len(blob) == EMPTY_CHECKPOINT_SIZE == 13
    assert blob == oracle_encode([])
    assert blob == b"PCAO" + b"\x01\x00\x00\x00" + b"\x00\x00\x00\x00" + b"\xff"


def test_scalar_f64_exact_bytes():
    # 1.0 as IEEE-754 little endian is 00 00 00 00 00 00 f0 3f.
    record = VarRecord.from_values("s", "f64", np.float64(1.0))
    blob = encode(Checkpoint(records=(record,)))
    expected = oracle_encode([("s", "f64", (), struct.pack("<d", 1.0))])
    assert blob == expected
    assert blob[-10:-1] == b"\x00" + bytes.fromhex("000000000000f03f")


def test_array_layout_row_major():
    values = np.arange(6, dtype="<i4").reshape(2, 3)
    record = VarRecord.from_values("m", "i32", values)
    blob = encode(Checkpoint(records=(record,)))
    payload = struct.pack("<6i", 0, 1, 2, 3, 4, 5)
    assert blob == oracle_encode([("m", "i32", (2, 3), payload)])


def test_decode_rejects_bad_magic():
    with pytest.raises(BadMagic):
        decode(b"NOPE" + bytes(9))


def test_decode_rejects_unknown_version():
    blob = b"PCAO" + struct.pack("<II", 7, 0) + b"\xff"
    with pytest.raises(UnsupportedVersion):
        decode(blob)


def test_decode_rejects_unknown_tag():
    name = b"x"
    blob = (
        b"PCAO"
        + struct.pack("<II", 1, 1)
        + struct.pack("<H", 1)
        + name
        + bytes([9, 0])
        + b"\xff"
    )
    with pytest.raises(UnknownTypeTag):
        decode(blob)


def test_decode_rejects_a_name_that_is_not_utf8():
    # Record 0 is named "a", record 1 by two bytes that are not UTF-8.
    blob = b"PCAO" + struct.pack("<II", 1, 2)
    for name in (b"a", b"\xff\xfe"):
        blob += struct.pack("<H", len(name)) + name + bytes([TAGS["f64"], 0]) + bytes(8)
    with pytest.raises(ParseError, match="record 1 name is not UTF-8"):
        decode(blob + b"\xff")


def test_decode_rejects_truncation_everywhere():
    record = VarRecord.from_values("abc", "f64", np.arange(4, dtype="<f8"))
    blob = encode(Checkpoint(records=(record,)))
    for cut in range(len(blob) - 1):
        with pytest.raises((TruncatedPayload, BadMagic)):
            decode(blob[:cut])


def test_decode_rejects_trailing_garbage():
    blob = encode(Checkpoint()) + b"\x00"
    with pytest.raises(TruncatedPayload):
        decode(blob)


def test_file_roundtrip(tmp_path):
    record = VarRecord.from_values("v", "i64", np.array([1, -2, 3], dtype="<i8"))
    checkpoint = Checkpoint(records=(record,))
    path = tmp_path / "x.ckpt"
    write_checkpoint_file(path, checkpoint)
    assert read_checkpoint_file(path) == checkpoint


def _same_error_from_file_and_bytes(tmp_path, blob):
    """The exception type read_checkpoint_file and decode both raise on blob."""
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(PcaotError) as from_bytes:
        decode(blob)
    with pytest.raises(PcaotError) as from_file:
        read_checkpoint_file(path)
    assert type(from_file.value) is type(from_bytes.value)
    return type(from_file.value)


def test_file_decode_rejects_a_cut_inside_a_payload(tmp_path):
    record = VarRecord.from_values("abc", "f64", np.arange(4, dtype="<f8"))
    blob = encode(Checkpoint(records=(record,)))
    assert _same_error_from_file_and_bytes(tmp_path, blob[:-10]) is TruncatedPayload


def test_file_decode_rejects_trailing_bytes(tmp_path):
    blob = encode(Checkpoint(records=(VarRecord.from_values("v", "i8", [1, 2]),)))
    assert _same_error_from_file_and_bytes(tmp_path, blob + b"\x00\x01") is TruncatedPayload


def test_file_decode_of_a_huge_claim_allocates_nothing(tmp_path):
    # Extents of 2^20 x 2^20 f64: a payload of 2^43 bytes, of which 16 exist.
    blob = (
        b"PCAO" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"a"
        + bytes([TAGS["f64"], 2]) + struct.pack("<2Q", 1 << 20, 1 << 20) + bytes(16) + b"\xff"
    )
    tracemalloc.start()
    try:
        assert _same_error_from_file_and_bytes(tmp_path, blob) is TruncatedPayload
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_name = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8
)
_elem = st.sampled_from(["i8", "i32", "i64", "f32", "f64"])


@st.composite
def _record(draw):
    name = draw(_name)
    elem = draw(_elem)
    extents = tuple(draw(st.lists(st.integers(1, 5), min_size=0, max_size=3)))
    count = math.prod(extents) if extents else 1
    if elem.startswith("f"):
        values = draw(
            st.lists(
                st.floats(allow_nan=False, width=32 if elem == "f32" else 64),
                min_size=count,
                max_size=count,
            )
        )
    else:
        bits = int(elem[1:])
        bound = 2 ** (bits - 1)
        values = draw(st.lists(st.integers(-bound, bound - 1), min_size=count, max_size=count))
    arr = np.array(values, dtype={"i8": "<i1", "i32": "<i4", "i64": "<i8", "f32": "<f4", "f64": "<f8"}[elem])
    if extents:
        arr = arr.reshape(extents)
    return VarRecord.from_values(name, elem, arr, extents=extents)


_records_list = st.lists(_record(), min_size=0, max_size=5, unique_by=lambda r: r.name)


@given(_records_list)
@settings(max_examples=60)
def test_roundtrip_property(records):
    checkpoint = Checkpoint(records=tuple(records))
    assert decode(encode(checkpoint)) == checkpoint


@given(_records_list)
@settings(max_examples=40)
def test_encode_matches_oracle(records):
    checkpoint = Checkpoint(records=tuple(records))
    expected = oracle_encode(
        [(r.name, r.elem_type, r.extents, r.payload) for r in records]
    )
    assert encode(checkpoint) == expected



# Any name that UTF-8 can encode, so its byte length may differ from its length.
_varied_name = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)


@given(st.lists(st.tuples(_varied_name, _record()), max_size=5, unique_by=lambda pair: pair[0]))
@settings(max_examples=60)
def test_encode_is_the_header_encoders_bytes_and_the_payloads(named):
    # The generated C reader and writer take their header bytes from
    # file_header and record_header, one field at a time.
    records = tuple(dataclasses.replace(rec, name=name) for name, rec in named)
    expected = b"".join(data for _, data in file_header(len(records)))
    for rec in records:
        fields = record_header(rec.name, rec.elem_type, rec.extents)
        kinds = ["name", "name", "type", "rank"] + ["extent"] * len(rec.extents)
        assert [kind for kind, _ in fields] == kinds
        expected += b"".join(data for _, data in fields) + rec.payload
    assert encode(Checkpoint(records=records)) == expected + b"\xff"
    assert [kind for kind, _ in file_header(len(records))] == ["magic", "version", "count"]

# --- comparison ---------------------------------------------------------


def _manifest(*specs):
    return StateManifest(
        section_id="cmp",
        variables=tuple(specs),
        parallelizable=True,
        expected_pattern="PO",
    )


def _ckpt(**named):
    records = []
    for name, (elem, values) in named.items():
        arr = np.asarray(values)
        extents = arr.shape if arr.shape else ()
        records.append(VarRecord.from_values(name, elem, arr, extents=extents))
    return Checkpoint(records=tuple(records))


M1 = _manifest(VariableSpec("a", "f64", (4,), "out"))


def test_compare_reflexive():
    ref = _ckpt(a=("f64", np.array([1.0, 2.0, np.nan, -0.5])))
    report = compare(ref, ref, M1, Tolerance(abs=0.0, rel=0.0))
    assert report.status is ComparisonStatus.PASS
    assert report.offending is None


def test_compare_nan_equals_nan():
    ref = _ckpt(a=("f64", np.array([np.nan] * 4)))
    cand = _ckpt(a=("f64", np.array([np.nan] * 4)))
    assert compare(ref, cand, M1).status is ComparisonStatus.PASS


def test_compare_identical_payloads_skip_float_math(monkeypatch):
    # Equal bytes pass with zero error, NaN and inf elements included, and
    # never reach the float-error computation.
    def no_float_math(*args):
        raise AssertionError("identical payloads were compared element by element")

    monkeypatch.setattr(checkpoint, "_float_errors", no_float_math)
    values = np.array([np.nan, np.inf, -0.0, 1.5])
    report = compare(_ckpt(a=("f64", values)), _ckpt(a=("f64", values.copy())), M1)
    assert report == ComparisonReport(status=ComparisonStatus.PASS)
    assert report.worst_abs_err == 0.0 and report.worst_rel_err == 0.0


def test_compare_negative_zero_takes_the_full_path():
    ref = _ckpt(a=("f64", np.array([0.0, 1.0, np.nan, -2.0])))
    cand = _ckpt(a=("f64", np.array([-0.0, 1.0, np.nan, -2.0])))
    assert ref.records[0].payload != cand.records[0].payload
    report = compare(ref, cand, M1, Tolerance(abs=0.0, rel=0.0))
    assert report == ComparisonReport(status=ComparisonStatus.PASS)


def test_compare_skipped_variable_keeps_the_offender():
    # cand_same repeats a's bytes, so a is skipped; cand_full writes a with
    # -0.0 for 0.0, the same values in other bytes, so a takes the full path.
    manifest = _manifest(
        VariableSpec("a", "f64", (4,), "out"), VariableSpec("b", "f64", (3,), "out")
    )
    a = np.array([0.0, 2.0, np.nan, -3.0])
    b_ref, b_cand = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.5, 3.0])
    ref = _ckpt(a=("f64", a), b=("f64", b_ref))
    cand_same = _ckpt(a=("f64", a.copy()), b=("f64", b_cand))
    cand_full = _ckpt(a=("f64", np.array([-0.0, 2.0, np.nan, -3.0])), b=("f64", b_cand))
    same = compare(ref, cand_same, manifest)
    assert same == compare(ref, cand_full, manifest)
    assert same.status is ComparisonStatus.NUMERIC_MISMATCH
    assert same.offending == ("b", 1)
    assert same.worst_abs_err == 0.5 and same.worst_rel_err == 0.25


def test_compare_one_sided_nan_fails():
    ref = _ckpt(a=("f64", np.array([0.0, 0.0, 0.0, 0.0])))
    cand = _ckpt(a=("f64", np.array([0.0, np.nan, 0.0, 0.0])))
    report = compare(ref, cand, M1)
    assert report.status is ComparisonStatus.NUMERIC_MISMATCH
    assert report.offending == ("a", 1)
    assert math.isinf(report.worst_abs_err)


def test_compare_in_variables_ignored():
    manifest = _manifest(
        VariableSpec("a", "f64", (2,), "out"), VariableSpec("b", "f64", (2,), "in")
    )
    ref = _ckpt(a=("f64", [1.0, 2.0]), b=("f64", [5.0, 5.0]))
    cand = _ckpt(a=("f64", [1.0, 2.0]), b=("f64", [-99.0, 99.0]))
    assert compare(ref, cand, manifest).status is ComparisonStatus.PASS


def test_compare_integers_bit_exact():
    manifest = _manifest(VariableSpec("k", "i32", (3,), "out"))
    ref = _ckpt(k=("i32", np.array([1, 2, 3], dtype="<i4")))
    cand = _ckpt(k=("i32", np.array([1, 2, 4], dtype="<i4")))
    report = compare(ref, cand, manifest)
    assert report.status is ComparisonStatus.NUMERIC_MISMATCH
    assert report.offending == ("k", 2)


def test_compare_missing_variable_precedence():
    manifest = _manifest(
        VariableSpec("a", "f64", (2,), "out"), VariableSpec("z", "f64", (2,), "out")
    )
    ref = _ckpt(a=("f64", [1.0, 2.0]), z=("f64", [0.0, 0.0]))
    # Candidate misses z entirely AND mismatches a numerically: missing wins.
    cand = _ckpt(a=("f64", [9.0, 9.0]))
    assert compare(ref, cand, manifest).status is ComparisonStatus.MISSING_VARIABLE


def test_compare_shape_beats_numeric():
    manifest = _manifest(VariableSpec("a", "f64", (4,), "out"))
    ref = _ckpt(a=("f64", [1.0, 2.0, 3.0, 4.0]))
    cand = Checkpoint(
        records=(VarRecord.from_values("a", "f64", np.zeros(3), extents=(3,)),)
    )
    assert compare(ref, cand, manifest).status is ComparisonStatus.SHAPE_MISMATCH


def test_compare_type_mismatch():
    manifest = _manifest(VariableSpec("a", "f64", (2,), "out"))
    ref = _ckpt(a=("f64", [1.0, 2.0]))
    cand = Checkpoint(
        records=(VarRecord.from_values("a", "f32", np.zeros(2, dtype="<f4"), extents=(2,)),)
    )
    assert compare(ref, cand, manifest).status is ComparisonStatus.TYPE_MISMATCH


def test_compare_reference_missing_output_is_an_error():
    manifest = _manifest(VariableSpec("a", "f64", (2,), "out"))
    empty = Checkpoint()
    cand = _ckpt(a=("f64", [1.0, 2.0]))
    with pytest.raises(ValueError):
        compare(empty, cand, manifest)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rel=float("nan"))


@given(
    scale=st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    base=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
@settings(max_examples=50)
def test_compare_monotone_in_tolerance(scale, base):
    ref = _ckpt(a=("f64", np.array([base, base + 1.0, base - 1.0, 0.0])))
    cand = _ckpt(a=("f64", np.array([base + scale, base + 1.0, base - 1.0, 0.0])))
    loose = compare(ref, cand, M1, Tolerance(abs=1e-2, rel=1e-2))
    tight = compare(ref, cand, M1, Tolerance(abs=0.0, rel=0.0))
    # Passing at zero tolerance implies passing at any looser one.
    if tight.status is ComparisonStatus.PASS:
        assert loose.status is ComparisonStatus.PASS


def oracle_scan(ref_values, cand_values, tol_abs, tol_rel):
    """Brute-force float comparison: returns (fails, worst_abs, worst_rel,
    offending_index) scanning every element in order."""
    worst_abs = 0.0
    worst_rel = 0.0
    offending = None
    offending_err = -1.0
    for index, (r, c) in enumerate(zip(ref_values, cand_values)):
        if math.isnan(r) and math.isnan(c):
            continue
        if math.isnan(r) or math.isnan(c):
            abs_err = math.inf
            rel_err = math.inf
        else:
            abs_err = abs(r - c)
            rel_err = abs_err / abs(r) if abs(r) > 0 else (math.inf if abs_err > 0 else 0.0)
        worst_abs = max(worst_abs, abs_err)
        worst_rel = max(worst_rel, rel_err)
        if not (abs_err <= tol_abs + tol_rel * abs(r)) and abs_err > offending_err:
            offending_err = abs_err
            offending = index
    return offending is not None, worst_abs, worst_rel, offending


def test_offending_matches_bruteforce_oracle():
    rng = np.random.default_rng(20240817)
    ref_values = rng.normal(size=1000)
    cand_values = ref_values.copy()
    # One perturbed element somewhere in the middle.
    cand_values[613] += 3e-4
    manifest = _manifest(VariableSpec("a", "f64", (1000,), "out"))
    ref = _ckpt(a=("f64", ref_values))
    cand = _ckpt(a=("f64", cand_values))
    tol = Tolerance(abs=1e-9, rel=1e-9)
    report = compare(ref, cand, manifest, tol)
    fails, worst_abs, worst_rel, offending = oracle_scan(
        ref_values.tolist(), cand_values.tolist(), tol.abs, tol.rel
    )
    assert fails
    assert report.status is ComparisonStatus.NUMERIC_MISMATCH
    assert report.offending == ("a", offending) == ("a", 613)
    assert report.worst_abs_err == pytest.approx(worst_abs, rel=1e-12)
    assert report.worst_rel_err == pytest.approx(worst_rel, rel=1e-12)


@given(
    perturb=st.lists(st.floats(-1e-3, 1e-3), min_size=8, max_size=8),
    tol_abs=st.floats(0.0, 1e-4),
)
@settings(max_examples=60)
def test_compare_agrees_with_oracle_property(perturb, tol_abs):
    ref_values = np.linspace(-4.0, 4.0, 8)
    cand_values = ref_values + np.array(perturb)
    manifest = _manifest(VariableSpec("a", "f64", (8,), "out"))
    tol = Tolerance(abs=tol_abs, rel=0.0)
    report = compare(
        _ckpt(a=("f64", ref_values)), _ckpt(a=("f64", cand_values)), manifest, tol
    )
    fails, worst_abs, worst_rel, offending = oracle_scan(
        ref_values.tolist(), cand_values.tolist(), tol.abs, tol.rel
    )
    assert (report.status is ComparisonStatus.NUMERIC_MISMATCH) == fails
    assert report.worst_abs_err == pytest.approx(worst_abs, rel=1e-12, abs=1e-300)
    if fails:
        assert report.offending == ("a", offending)


def test_matching_infinities_have_zero_error():
    # inf - inf is NaN; an equal element has no error, so 1.0 is the worst.
    ref = _ckpt(a=("f64", np.array([np.inf, 1.0])))
    cand = _ckpt(a=("f64", np.array([np.inf, 2.0])))
    manifest = _manifest(VariableSpec("a", "f64", (2,), "out"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compare(ref, cand, manifest)
    assert report == ComparisonReport(
        status=ComparisonStatus.NUMERIC_MISMATCH,
        worst_abs_err=1.0,
        worst_rel_err=1.0,
        offending=("a", 1),
    )


def test_a_number_against_an_infinite_reference_has_infinite_relative_error():
    # inf / inf is NaN; the relative error of a finite candidate is infinite.
    manifest = _manifest(VariableSpec("a", "f64", (), "out"))
    report = compare(_ckpt(a=("f64", np.inf)), _ckpt(a=("f64", 1.0)), manifest)
    assert report.worst_abs_err == math.inf
    assert report.worst_rel_err == math.inf


def _blockwise_and_whole(ref, cand, manifest, tol, block):
    with mock.patch.object(checkpoint, "BLOCK", block):
        blockwise = compare(ref, cand, manifest, tol)
    with mock.patch.object(checkpoint, "BLOCK", 1 << 30):
        whole = compare(ref, cand, manifest, tol)
    return blockwise, whole


_BLOCK_MANIFEST = _manifest(
    VariableSpec("x", "f32", (7,), "out"),
    VariableSpec("y", "f64", (7,), "out"),
    VariableSpec("k", "i64", (7,), "out"),
)
_X = np.arange(7, dtype="<f4")
_Y = np.arange(7, dtype="<f8")
_K = np.arange(7, dtype="<i8")

# name -> (candidate x, y, k, expected offender); the reference is (_X, _Y, _K).
BLOCK_CASES = {
    # Equal worst errors at 2 and 3, on both sides of the first block edge.
    "tie across a block edge": (_X, _Y + [0, 0, 0.5, 0.5, 0, 0, 0], _K, ("y", 2)),
    # An error of 0.5 in the first block, a larger one only in the third.
    "later block is larger": (_X, _Y + [0, 0.5, 0, 0, 0, 0, 2.0], _K, ("y", 6)),
    # NaN against a number in the second block; a matching inf in the first.
    "nan in one block": (
        np.array([0, np.inf, 2, 3, np.nan, 5, 6], dtype="<f4"),
        _Y,
        _K,
        ("x", 4),
    ),
    # x and k both fail by 3 at their own index 5; x comes first.
    "two variables tie": (_X + [0, 0, 0, 0, 0, 3, 0], _Y, _K + [0, 0, 0, 0, 0, 3, 0], ("x", 5)),
    # k is the only failure, across two blocks, and holds the largest error.
    "integer blocks": (_X, _Y, _K + [0, 1, 0, 0, 0, 0, -4], ("k", 6)),
    "all equal but -0.0": (np.array([-0.0, 1, 2, 3, 4, 5, 6], dtype="<f4"), _Y, _K, None),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blockwise_compare_agrees_with_whole_array_compare(case):
    x, y, k, offender = BLOCK_CASES[case]
    x_ref = np.where(np.isinf(x), x, _X).astype("<f4")  # the matching inf
    ref = _ckpt(x=("f32", x_ref), y=("f64", _Y), k=("i64", _K))
    cand = _ckpt(x=("f32", x), y=("f64", y), k=("i64", k))
    blockwise, whole = _blockwise_and_whole(ref, cand, _BLOCK_MANIFEST, Tolerance(), 3)
    assert blockwise == whole
    assert blockwise.offending == offender


@given(
    ref=st.lists(st.floats(width=32), min_size=1, max_size=12),
    noise=st.lists(
        st.sampled_from([0.0, 0.5, -1.0, 2.0, np.inf, np.nan]), min_size=12, max_size=12
    ),
    block=st.integers(1, 5),
)
@settings(max_examples=80)
def test_blockwise_compare_agrees_with_whole_array_property(ref, noise, block):
    ref_values = np.array(ref, dtype="<f4")
    cand_values = (ref_values + np.array(noise[: len(ref)], dtype="<f4")).astype("<f4")
    manifest = _manifest(VariableSpec("a", "f32", (len(ref),), "out"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the candidate's own inf - inf
        cand = _ckpt(a=("f32", cand_values))
    blockwise, whole = _blockwise_and_whole(
        _ckpt(a=("f32", ref_values)), cand, manifest, Tolerance(abs=0.1, rel=0.0), block
    )
    assert blockwise == whole
