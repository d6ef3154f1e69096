"""Tests for the binary raw-signal store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.signal import RawSignal, SignalConfig, synthesize_signal
from repro.nanopore.signal_store import (
    SignalRecord,
    iter_read_store,
    iter_signals,
    quantisation_step,
    read_signals,
    read_store_count,
    signal_count,
    write_read_store,
    write_signals,
)


def _random_signal(n_bases: int, seed: int) -> RawSignal:
    pore = PoreModel.synthetic(k=5)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=n_bases).astype(np.uint8)
    return synthesize_signal(codes, pore, SignalConfig(), rng)


class TestRoundTrip:
    def test_single_record(self, tmp_path):
        signal = _random_signal(200, 1)
        path = tmp_path / "one.rsig"
        size = write_signals(path, [SignalRecord("read-1", signal)])
        assert size > signal.samples.size  # int16 payload + metadata
        back = read_signals(path)
        assert len(back) == 1
        assert back[0].read_id == "read-1"
        np.testing.assert_array_equal(back[0].signal.base_starts, signal.base_starts)
        step = quantisation_step(signal.samples)
        np.testing.assert_allclose(
            back[0].signal.samples, signal.samples, atol=step + 1e-6
        )

    def test_many_records(self, tmp_path):
        records = [SignalRecord(f"r{i}", _random_signal(100 + i, i)) for i in range(6)]
        path = tmp_path / "many.rsig"
        write_signals(path, records)
        back = read_signals(path)
        assert [r.read_id for r in back] == [r.read_id for r in records]
        for original, restored in zip(records, back, strict=True):
            assert restored.signal.n_bases == original.signal.n_bases

    def test_empty_store(self, tmp_path):
        path = tmp_path / "empty.rsig"
        write_signals(path, [])
        assert read_signals(path) == []

    def test_empty_signal_record(self, tmp_path):
        empty = RawSignal(samples=np.empty(0, np.float32), base_starts=np.empty(0, np.int64))
        path = tmp_path / "zero.rsig"
        write_signals(path, [SignalRecord("empty", empty)])
        back = read_signals(path)
        assert back[0].signal.samples.size == 0

    @given(
        n_bases=st.integers(min_value=6, max_value=400),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_property(self, n_bases, seed, tmp_path_factory):
        signal = _random_signal(n_bases, seed)
        path = tmp_path_factory.mktemp("rsig") / "prop.rsig"
        write_signals(path, [SignalRecord("p", signal)])
        restored = read_signals(path)[0].signal
        step = quantisation_step(signal.samples)
        assert np.abs(restored.samples - signal.samples).max() <= step + 1e-6


class TestStreamingReader:
    def test_iter_signals_is_lazy(self, tmp_path):
        """Partial consumption reads only the records it needs."""
        records = [SignalRecord(f"r{i}", _random_signal(120, i)) for i in range(5)]
        path = tmp_path / "lazy.rsig"
        write_signals(path, records)
        stream = iter_signals(path)
        first = next(stream)
        assert first.read_id == "r0"
        second = next(stream)
        assert second.read_id == "r1"
        stream.close()  # abandoning mid-stream must not raise

    def test_signal_count_reads_only_header(self, tmp_path):
        records = [SignalRecord(f"r{i}", _random_signal(80, i)) for i in range(3)]
        path = tmp_path / "count.rsig"
        write_signals(path, records)
        assert signal_count(path) == 3

    def test_streaming_matches_bulk_read(self, tmp_path):
        records = [SignalRecord(f"r{i}", _random_signal(90 + i, i)) for i in range(4)]
        path = tmp_path / "same.rsig"
        write_signals(path, records)
        streamed = list(iter_signals(path))
        bulk = read_signals(path)
        assert [r.read_id for r in streamed] == [r.read_id for r in bulk]
        for a, b in zip(streamed, bulk, strict=True):
            np.testing.assert_array_equal(a.signal.samples, b.signal.samples)

    def test_truncated_record_raises(self, tmp_path):
        """A container cut mid-record fails loudly, not with garbage."""
        records = [SignalRecord(f"r{i}", _random_signal(150, i)) for i in range(3)]
        path = tmp_path / "cut.rsig"
        write_signals(path, records)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 37])
        with pytest.raises(ValueError, match="truncated"):
            list(iter_signals(path))

    def test_truncated_header_raises(self, tmp_path):
        path = tmp_path / "stub.rsig"
        path.write_bytes(b"RSIG\x01\x00")  # magic + version, no count
        with pytest.raises(ValueError, match="truncated"):
            list(iter_signals(path))

    def test_non_finite_record_fails_naming_its_read_id(self, tmp_path):
        """A NaN dequantisation offset makes every sample NaN: the record
        fails where it is read, naming its read, instead of decoding."""
        import struct

        path = tmp_path / "nan.rsig"
        good = _random_signal(60, 1)
        write_signals(path, [SignalRecord("good", good), SignalRecord("bad", _random_signal(60, 2))])
        data = bytearray(path.read_bytes())
        # header(10) + the first record, then the second's id length (2) and id (3).
        first = 2 + 4 + 8 + 4 + 2 * good.samples.size + 4 + 4 * good.n_bases
        offset = 10 + first + 2 + 3
        data[offset : offset + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(data))
        stream = iter_signals(path)
        assert next(stream).read_id == "good"
        with pytest.raises(ValueError, match=r"signal record 1 \('bad'\).*non-finite"):
            next(stream)

    def test_count_larger_than_body_raises(self, tmp_path):
        """A corrupt header declaring more records than exist is caught."""
        import struct

        path = tmp_path / "overcount.rsig"
        write_signals(path, [SignalRecord("only", _random_signal(60, 1))])
        data = bytearray(path.read_bytes())
        data[6:10] = struct.pack("<I", 5)  # claim 5 records
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="truncated"):
            list(iter_signals(path))


class TestReadStore:
    @pytest.fixture(scope="class")
    def tiny_reads(self):
        profile = small_profile(ECOLI_LIKE, max_read_length=1_500)
        return generate_dataset(profile, scale=0.0002, seed=5).reads

    def test_round_trip_is_bit_exact(self, tiny_reads, tmp_path):
        path = tmp_path / "reads.gprd"
        size = write_read_store(path, tiny_reads)
        assert size > 0
        assert read_store_count(path) == len(tiny_reads)
        restored = list(iter_read_store(path))
        assert len(restored) == len(tiny_reads)
        for original, back in zip(tiny_reads, restored, strict=True):
            assert back.read_id == original.read_id
            assert back.read_class is original.read_class
            assert back.strand == original.strand
            assert back.ref_start == original.ref_start
            assert back.ref_end == original.ref_end
            assert back.seed == original.seed
            np.testing.assert_array_equal(back.true_codes, original.true_codes)
            # float64 qualities are stored exactly (no quantisation).
            np.testing.assert_array_equal(back.qualities, original.qualities)

    def test_streaming_is_lazy(self, tiny_reads, tmp_path):
        path = tmp_path / "lazy.gprd"
        write_read_store(path, tiny_reads)
        stream = iter_read_store(path)
        assert next(stream).read_id == tiny_reads[0].read_id
        stream.close()

    def test_empty_store(self, tmp_path):
        path = tmp_path / "empty.gprd"
        write_read_store(path, [])
        assert list(iter_read_store(path)) == []
        assert read_store_count(path) == 0

    def test_truncated_record_raises(self, tiny_reads, tmp_path):
        path = tmp_path / "cut.gprd"
        write_read_store(path, tiny_reads)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 11])
        with pytest.raises(ValueError, match="truncated"):
            list(iter_read_store(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gprd"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(ValueError, match="magic"):
            list(iter_read_store(path))

    def test_signal_magic_rejected_as_read_store(self, tmp_path):
        """The two container kinds cannot be confused for each other."""
        path = tmp_path / "mixed.rsig"
        write_signals(path, [])
        with pytest.raises(ValueError, match="magic"):
            list(iter_read_store(path))

    def test_unknown_read_class_rejected(self, tiny_reads, tmp_path):
        path = tmp_path / "class.gprd"
        write_read_store(path, tiny_reads[:1])
        data = bytearray(path.read_bytes())
        # Class byte sits right after the header, id length, and id.
        id_len = len(tiny_reads[0].read_id.encode("utf-8"))
        data[10 + 2 + id_len] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="read class"):
            list(iter_read_store(path))

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("strand", 5, "strand must be 1 or -1"),
            ("strand", 0, "strand must be 1 or -1"),
            ("has_ref", 7, "has-ref flag must be 0 or 1"),
            ("code", 9, "base codes must be 0-3"),
            ("quality", -5.0, "qualities must be finite and >= 0"),
            ("quality", float("nan"), "qualities must be finite and >= 0"),
            ("quality", float("inf"), "qualities must be finite and >= 0"),
        ],
    )
    def test_corrupt_record_refused(self, tiny_reads, tmp_path, field, value, message):
        """One patched byte (or quality) of a one-read store: the reader
        refuses the record, naming it, instead of handing the pipeline a
        read it would run, or fail on later inside the basecaller."""
        import struct

        read = tiny_reads[0]
        path = tmp_path / "corrupt.gprd"
        write_read_store(path, [read])
        data = bytearray(path.read_bytes())
        # The record's class byte: past the header, id length and id.
        at = 10 + 2 + len(read.read_id.encode("utf-8"))
        codes_at = at + 19 + 8 + 4  # class..ref_end, seed, n_bases
        if field == "strand":
            struct.pack_into("<b", data, at + 1, value)
        elif field == "has_ref":
            data[at + 2] = value
        elif field == "code":
            data[codes_at + 3] = value
        else:
            struct.pack_into("<d", data, codes_at + len(read) + 8 * 3, value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=rf"read record 0 \('{read.read_id}'\): {message}"):
            list(iter_read_store(path))

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "trail.gprd"
        write_read_store(path, [])
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="trailing"):
            list(iter_read_store(path))


class TestFormatValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rsig"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(ValueError, match="magic"):
            read_signals(path)

    def test_bad_version(self, tmp_path):
        import struct

        path = tmp_path / "v9.rsig"
        path.write_bytes(b"RSIG" + struct.pack("<HI", 9, 0))
        with pytest.raises(ValueError, match="version"):
            read_signals(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "trail.rsig"
        write_signals(path, [])
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="trailing"):
            read_signals(path)


class TestVolumeAccounting:
    def test_bytes_per_base_in_modelled_range(self, tmp_path):
        """The store's footprint matches the movement model's
        raw-signal volume assumption (~order 10 bytes/base)."""
        signal = _random_signal(2_000, 3)
        path = tmp_path / "vol.rsig"
        size = write_signals(path, [SignalRecord("v", signal)])
        bytes_per_base = size / signal.n_bases
        # 2 B/sample x ~6 samples/base + 4 B/base of index = ~16 B/base.
        assert 8.0 < bytes_per_base < 25.0


class TestAtomicWrites:
    def test_failed_write_leaves_no_file(self, tmp_path):
        """An exception mid-write must not leave a poisoned container."""

        def exploding_reads():
            profile = small_profile(ECOLI_LIKE, max_read_length=1_000)
            yield from generate_dataset(profile, scale=0.0001, seed=1).reads
            raise RuntimeError("interrupted")

        path = tmp_path / "reads.gprd"
        with pytest.raises(RuntimeError, match="interrupted"):
            write_read_store(path, exploding_reads())
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no temp residue either

    def test_failed_write_preserves_previous_container(self, tmp_path):
        profile = small_profile(ECOLI_LIKE, max_read_length=1_000)
        reads = generate_dataset(profile, scale=0.0001, seed=1).reads
        path = tmp_path / "reads.gprd"
        write_read_store(path, reads)

        def exploding():
            yield reads[0]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_read_store(path, exploding())
        # The original, complete container is untouched.
        assert read_store_count(path) == len(reads)
        assert len(list(iter_read_store(path))) == len(reads)

    def test_corrupt_count_field_raises_not_allocates(self, tmp_path):
        """A record declaring gigabytes fails with ValueError before any
        allocation, not MemoryError after (the count is bounded by the
        remaining file size)."""
        import struct

        profile = small_profile(ECOLI_LIKE, max_read_length=1_000)
        read = generate_dataset(profile, scale=0.0001, seed=2).reads[0]
        path = tmp_path / "bomb.gprd"
        write_read_store(path, [read])
        data = bytearray(path.read_bytes())
        # n_bases sits after header(10) + id_len(2) + id + class block(19) + seed(8).
        offset = 10 + 2 + len(read.read_id.encode()) + 19 + 8
        data[offset : offset + 4] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="declares"):
            list(iter_read_store(path))


class TestCorruptSignalCounts:
    def test_corrupt_n_samples_raises_not_allocates(self, tmp_path):
        import struct

        path = tmp_path / "bomb.rsig"
        write_signals(path, [SignalRecord("r0", _random_signal(50, 1))])
        data = bytearray(path.read_bytes())
        # n_samples sits after header(10) + id_len(2) + id(2) + offset/scale(8).
        offset = 10 + 2 + 2 + 8
        data[offset : offset + 4] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="declares"):
            list(iter_signals(path))
