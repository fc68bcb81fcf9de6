"""v3 binary index format: layout, round trip, corruption detection.

Satellite coverage for the binary store: every corruption mode must
raise :class:`BinaryFormatError` naming the failing section (and byte
offset where known) — truncation, bit flips in each section, bad
magic/version/flags, CRC mismatches — and a write/read round trip must
be exact, including the iteration-order permutation and unicode keys.
"""

from __future__ import annotations

import math
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.binfmt import (
    BINARY_FORMAT_VERSION,
    BLOCK_SIZE,
    MAGIC,
    SECTION_NAMES,
    BinaryFormatError,
    BinaryIndexReader,
    read_section_table,
    write_index_file,
)
from repro.index.compression import decode_postings
from repro.index.postings import Posting


def _sample_postings() -> list[Posting]:
    """Three postings exercising the interesting cases: unicode key,
    unset CorS, empty posting, out-of-order entry adds."""
    a = Posting("tag:ünïcode|tag:zebra", cors=0.75)
    a.add("obj009", 0.5, 0.25)
    a.add("obj001", 0.125, 0.0625)  # out of id order: writer canonicalizes
    a.add("obj005", 1.0, 2.0)
    b = Posting("tag:alpha", cors=None)  # lazily-filled CorS round-trips as None
    b.add("obj001", 3.0, 4.0)
    empty = Posting("tag:empty", cors=0.0)
    return [a, b, empty]


def _blocky_postings() -> list[Posting]:
    """The samples plus one posting spanning multiple blocks — only
    multi-block postings store ``blockmax`` bounds, so this populates
    every section of the file, optional ones included."""
    postings = _sample_postings()
    big = Posting("tag:big", cors=0.5)
    for i in range(BLOCK_SIZE + 2):
        big.add(f"big{i:04d}", float(i + 1), 0.5)
    postings.append(big)
    return postings


@pytest.fixture()
def artifact(tmp_path):
    return write_index_file(
        tmp_path / "index.bin", _sample_postings(), n_objects=12, max_clique_size=2
    )


def _flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
def test_header_fields_round_trip(artifact):
    with BinaryIndexReader(artifact) as reader:
        assert reader.version == BINARY_FORMAT_VERSION
        assert reader.n_objects == 12
        assert reader.max_clique_size == 2
        assert reader.n_cliques == 3
        assert reader.total_entries == 4
        assert reader.object_count == 3  # distinct ids actually posted


def test_postings_round_trip_canonicalized(artifact):
    with BinaryIndexReader(artifact) as reader:
        slot = reader.find_slot("tag:ünïcode|tag:zebra")
        assert slot is not None
        ids, freq, smooth, cors = reader.read_posting(slot)
        # entries come back ascending by id, components permuted in parallel
        assert ids == ["obj001", "obj005", "obj009"]
        assert freq == [0.125, 1.0, 0.5]
        assert smooth == [0.0625, 2.0, 0.25]
        assert cors == 0.75


def test_none_cors_round_trips_via_nan(artifact):
    with BinaryIndexReader(artifact) as reader:
        slot = reader.find_slot("tag:alpha")
        assert reader.posting_cors(slot) is None
        *_, cors = reader.read_posting(slot)
        assert cors is None


def test_empty_posting_round_trips(artifact):
    with BinaryIndexReader(artifact) as reader:
        slot = reader.find_slot("tag:empty")
        assert reader.posting_length(slot) == 0
        ids, freq, smooth, cors = reader.read_posting(slot)
        assert ids == [] and freq == [] and smooth == []
        assert cors == 0.0


def test_iteration_order_preserved(artifact):
    """The ``order`` section recovers the original serialization order
    even though slots are key-sorted on disk."""
    with BinaryIndexReader(artifact) as reader:
        keys = [reader.key_at(slot) for slot in reader.iteration_order()]
    assert keys == [p.key for p in _sample_postings()]


def test_find_slot_miss(artifact):
    with BinaryIndexReader(artifact) as reader:
        assert reader.find_slot("tag:absent") is None
        assert reader.find_slot("") is None
        assert reader.find_slot("tag:zzzz") is None  # past the last key


def test_empty_index_round_trips(tmp_path):
    path = write_index_file(tmp_path / "empty.bin", [], n_objects=0, max_clique_size=3)
    with BinaryIndexReader(path) as reader:
        assert reader.n_cliques == 0
        assert reader.total_entries == 0
        assert reader.iteration_order() == []
        assert reader.find_slot("anything") is None


def test_writer_rejects_duplicate_keys(tmp_path):
    postings = [Posting("tag:a"), Posting("tag:a")]
    with pytest.raises(BinaryFormatError, match="duplicate"):
        write_index_file(tmp_path / "dup.bin", postings, n_objects=1, max_clique_size=2)


def test_writer_is_atomic(artifact):
    assert not artifact.with_name(artifact.name + ".tmp").exists()


# ----------------------------------------------------------------------
# corruption: header and section table
# ----------------------------------------------------------------------
def test_bad_magic(artifact):
    _flip_byte(artifact, 0)
    with pytest.raises(BinaryFormatError, match="magic") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section == "header"


def test_unsupported_version(artifact):
    data = bytearray(artifact.read_bytes())
    struct.pack_into("<I", data, 8, 99)
    # re-seal the header CRC so the version check (not the CRC) fires
    import zlib

    struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
    artifact.write_bytes(bytes(data))
    with pytest.raises(BinaryFormatError, match="version 99"):
        BinaryIndexReader(artifact)


def test_nonzero_flags(artifact):
    import zlib

    data = bytearray(artifact.read_bytes())
    struct.pack_into("<I", data, 12, 0x4)
    struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
    artifact.write_bytes(bytes(data))
    with pytest.raises(BinaryFormatError, match="flags"):
        BinaryIndexReader(artifact)


def test_header_crc_detects_flip(artifact):
    _flip_byte(artifact, 16)  # max_clique_size field
    with pytest.raises(BinaryFormatError, match="header CRC") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section == "header"


def test_section_table_crc_detects_flip(artifact):
    _flip_byte(artifact, 52 + 3)  # inside the first section record
    with pytest.raises(BinaryFormatError, match="section table CRC") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section == "section-table"


def test_truncated_to_nothing(artifact):
    artifact.write_bytes(artifact.read_bytes()[:20])
    with pytest.raises(BinaryFormatError, match="too small") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section == "header"


def test_truncated_inside_table(artifact):
    artifact.write_bytes(artifact.read_bytes()[:60])
    with pytest.raises(BinaryFormatError, match="truncated"):
        BinaryIndexReader(artifact)


def test_truncated_payload_names_section(artifact):
    """Cutting the file short makes some section extend past EOF; the
    error says which one and suggests truncation."""
    full = artifact.read_bytes()
    artifact.write_bytes(full[: len(full) - 16])
    with pytest.raises(BinaryFormatError, match="truncated artifact") as exc_info:
        BinaryIndexReader(artifact)
    assert exc_info.value.section in SECTION_NAMES


# ----------------------------------------------------------------------
# corruption: per-section bit flips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("section", SECTION_NAMES)
def test_bit_flip_in_each_section_is_named(tmp_path, section):
    path = write_index_file(
        tmp_path / "index.bin", _blocky_postings(), n_objects=200, max_clique_size=2
    )
    offset, length = read_section_table(path)[section]
    assert length > 0, f"sample index leaves section {section!r} empty"
    _flip_byte(path, offset + length // 2)
    with pytest.raises(BinaryFormatError) as exc_info:
        BinaryIndexReader(path)
    # CRC localizes the flip to the exact section, and the offset in the
    # message points at it
    assert exc_info.value.section == section
    assert exc_info.value.offset == offset
    assert f"section={section!r}" in str(exc_info.value)
    assert f"offset={offset}" in str(exc_info.value)


def test_payload_flip_skips_lazy_check_but_verify_catches(tmp_path):
    """``verify_payload=False`` defers payload CRCs — the open succeeds,
    the explicit :meth:`verify` sweep still reports the bad section."""
    path = write_index_file(
        tmp_path / "index.bin", _sample_postings(), n_objects=12, max_clique_size=2
    )
    offset, length = read_section_table(path)["freq"]
    _flip_byte(path, offset + 1)
    with pytest.raises(BinaryFormatError):
        BinaryIndexReader(path)  # default verifies payloads eagerly
    with BinaryIndexReader(path, verify_payload=False) as reader:
        with pytest.raises(BinaryFormatError) as exc_info:
            reader.verify()
        assert exc_info.value.section == "freq"


def test_undecodable_posting_stream(tmp_path):
    """A postings-section flip that survives to decode time (payload
    verification off) is caught structurally: stream length mismatch,
    truncated varint, or an id outside the object table."""
    path = write_index_file(
        tmp_path / "index.bin", _sample_postings(), n_objects=12, max_clique_size=2
    )
    offset, _length = read_section_table(path)["postings"]
    data = bytearray(path.read_bytes())
    data[offset] = 0x80  # continuation bit with nothing sane after
    path.write_bytes(bytes(data))
    with BinaryIndexReader(path, verify_payload=False) as reader:
        with pytest.raises(BinaryFormatError) as exc_info:
            for slot in range(reader.n_cliques):
                reader.read_posting(slot)
        assert exc_info.value.section == "postings"


def test_nan_cors_is_not_corruption(artifact):
    """NaN is the in-band None encoding, not a corrupt float."""
    with BinaryIndexReader(artifact) as reader:
        for slot in range(reader.n_cliques):
            cors = reader.posting_cors(slot)
            assert cors is None or not math.isnan(cors)


def test_close_is_idempotent(artifact):
    reader = BinaryIndexReader(artifact)
    reader.close()
    reader.close()


def test_missing_file():
    with pytest.raises(BinaryFormatError, match="missing"):
        BinaryIndexReader("/nonexistent/index.bin")


def test_magic_is_stable():
    """The magic is the on-disk contract — changing it orphans every
    existing artifact."""
    assert MAGIC == b"RPROIDX3"
    assert BINARY_FORMAT_VERSION == 3


# ----------------------------------------------------------------------
# one-pass postings decode
# ----------------------------------------------------------------------
def _assert_decode_matches_per_posting(path):
    """The flat decode equals ``decode_postings`` run on each slot's
    stream, slot by slot, and its slices are the per-slot arrays."""
    with BinaryIndexReader(path) as reader:
        post_off, post_len, *_ = reader.postmeta_columns()
        expected = [
            decode_postings(reader.postings_byte_range(int(off), int(off + n)))
            for off, n in zip(post_off, post_len)
        ]
        got = [reader.posting_dense_ids(slot).tolist() for slot in range(reader.n_cliques)]
        assert got == expected
        assert reader.dense_ids().tolist() == [i for ids in expected for i in ids]
        assert not reader.dense_ids().flags.writeable


def test_one_pass_decode_matches_per_posting_samples(tmp_path):
    for name, postings, n_objects in (
        ("sample.bin", _sample_postings(), 12),
        ("blocky.bin", _blocky_postings(), 200),
        ("one-empty.bin", [Posting("tag:empty", cors=0.0)], 0),
        ("empty.bin", [], 0),
    ):
        path = write_index_file(
            tmp_path / name, postings, n_objects=n_objects, max_clique_size=2
        )
        _assert_decode_matches_per_posting(path)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sets(st.integers(0, 600), max_size=30), max_size=6))
def test_one_pass_decode_matches_per_posting_random(id_sets):
    postings = []
    for i, ids in enumerate(id_sets):
        posting = Posting(f"tag:k{i:02d}", cors=0.5)
        for oid in sorted(ids, reverse=True):
            posting.add(f"o{oid:04d}", 1.0, 0.5)
        postings.append(posting)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_index_file(
            Path(tmp) / "index.bin", postings, n_objects=601, max_clique_size=2
        )
        _assert_decode_matches_per_posting(path)
        with BinaryIndexReader(path) as reader:
            for posting in postings:
                slot = reader.find_slot(posting.key)
                ids = [reader.object_id_at(int(r)) for r in reader.posting_dense_ids(slot)]
                assert ids == sorted(posting.object_ids)


def _patch_stream(path, slot, stream):
    """Overwrite slot ``slot``'s posting stream with ``stream`` (same
    length), leaving the payload CRC stale."""
    with BinaryIndexReader(path) as reader:
        post_off, post_len, *_ = reader.postmeta_columns()
    assert len(stream) == post_len[slot]
    start = read_section_table(path)["postings"][0] + int(post_off[slot])
    data = bytearray(path.read_bytes())
    data[start:start + len(stream)] = stream
    path.write_bytes(bytes(data))


def _patch_post_off(path, slot, post_off):
    """Rewrite one postmeta ``post_off`` and re-seal the postmeta and
    section-table CRCs, so only the layout check can object."""
    data = bytearray(path.read_bytes())
    offset, length = read_section_table(path)["postmeta"]
    struct.pack_into("<Q", data, offset + 32 * slot, post_off)
    (n_sections,) = struct.unpack_from("<I", data, 20)
    for record in range(52, 52 + 32 * n_sections, 32):
        if bytes(data[record:record + 8]).rstrip(b"\x00") == b"postmeta":
            crc = zlib.crc32(bytes(data[offset:offset + length]))
            struct.pack_into("<I", data, record + 24, crc)
    table_end = 52 + 32 * n_sections
    struct.pack_into("<I", data, table_end, zlib.crc32(bytes(data[52:table_end])))
    path.write_bytes(bytes(data))


def _decode_error(path):
    with BinaryIndexReader(path, verify_payload=False) as reader:
        with pytest.raises(BinaryFormatError) as exc_info:
            reader.dense_ids()
    assert exc_info.value.section == "postings"
    return str(exc_info.value)


# Slots of ``_sample_postings`` (key order): 0 "tag:alpha" = [0],
# 1 "tag:empty" = [], 2 "tag:ünïcode|tag:zebra" = [0, 1, 2]; every gap
# is 0, so each stream is all zero bytes.
def test_decode_rejects_per_posting_count_mismatch(artifact):
    _patch_stream(artifact, 2, b"\x80\x00\x00")
    message = _decode_error(artifact)
    assert "slot 2 decodes to 2 ids, postmeta promises 3" in message


def test_decode_rejects_truncated_varint(artifact):
    _patch_stream(artifact, 2, b"\x00\x00\x80")
    assert "slot 2 ends in a truncated varint" in _decode_error(artifact)


def test_decode_rejects_id_outside_object_table(artifact):
    _patch_stream(artifact, 2, b"\x00\x00\x05")  # ids 0, 1, 7 of 3
    assert "slot 2 references dense id 7 outside the object table" in _decode_error(
        artifact
    )


def test_decode_rejects_overlong_varint(tmp_path):
    """Ten 2-byte gaps leave room for one 10-byte varint while every
    stream still holds its promised count of values."""
    filler = Posting("tag:filler", cors=0.5)
    for i in range(1300):
        filler.add(f"f{i:04d}", 1.0, 0.5)
    wide = Posting("tag:wide", cors=0.5)
    for i in range(10):
        wide.add(f"f{130 * i + 129:04d}", 1.0, 0.5)
    path = write_index_file(
        tmp_path / "index.bin", [filler, wide], n_objects=1300, max_clique_size=2
    )
    _patch_stream(path, 1, b"\x80" * 9 + b"\x00" + b"\x81\x00" + b"\x00" * 8)
    assert "varint longer than 9 bytes" in _decode_error(path)


def test_decode_rejects_streams_out_of_slot_order(artifact):
    # slot 0's one-byte stream moved behind slot 2's: every stream still
    # lies inside the section (open succeeds), but not back to back.
    _patch_post_off(artifact, 0, 3)
    _patch_post_off(artifact, 2, 0)
    assert "slot 0 is not stored back to back" in _decode_error(artifact)
