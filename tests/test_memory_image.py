"""Tests for the committed memory image."""

import pytest
from hypothesis import given, strategies as st

from repro.memory import MemoryImage
from repro.memory.memory_image import _background


class TestBasics:
    def test_write_read_roundtrip_8_bytes(self):
        img = MemoryImage()
        img.write(0x1000, 8, 0xDEADBEEFCAFEF00D)
        assert img.read(0x1000, 8) == 0xDEADBEEFCAFEF00D

    def test_write_read_4_bytes(self):
        img = MemoryImage()
        img.write(0x1000, 4, 0x12345678)
        assert img.read(0x1000, 4) == 0x12345678

    def test_16_byte_values(self):
        img = MemoryImage()
        value = (0xAAAA << 64) | 0xBBBB
        img.write(0x2000, 16, value)
        assert img.read(0x2000, 16) == value

    def test_partial_overwrite(self):
        img = MemoryImage()
        img.write(0x1000, 8, (0x11111111 << 32) | 0x22222222)
        img.write(0x1000, 4, 0x33333333)
        assert img.read(0x1000, 8) == (0x11111111 << 32) | 0x33333333

    def test_adjacent_writes_do_not_interfere(self):
        img = MemoryImage()
        img.write(0x1000, 8, 1)
        img.write(0x1008, 8, 2)
        assert img.read(0x1000, 8) == 1
        assert img.read(0x1008, 8) == 2

    def test_write_after_a_whole_pair_read_is_seen(self):
        """An 8-byte-aligned read memoizes never-written pairs whole; a
        later write to either word must show through every read size."""
        img = MemoryImage()
        background = img.read(0x100, 16)
        img.write(0x104, 4, 0xAABBCCDD)
        high_word = 0xFFFFFFFF << 32
        assert img.read(0x100, 16) == (background & ~high_word) | (0xAABBCCDD << 32)
        assert img.read(0x100, 8) == (background & 0xFFFFFFFF) | (0xAABBCCDD << 32)
        assert img.read(0x108, 8) == background >> 64
        assert img.read(0x104, 4) == 0xAABBCCDD

    def test_len_counts_words(self):
        img = MemoryImage()
        img.write(0x1000, 8, 7)
        assert len(img) == 2


class TestValidation:
    def test_unaligned_write_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            MemoryImage().write(0x1001, 4, 1)

    def test_unaligned_read_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            MemoryImage().read(0x1002, 4)

    def test_non_multiple_size_rejected(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            MemoryImage().write(0x1000, 3, 1)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            MemoryImage().read(0x1000, 0)


class TestBackground:
    def test_deterministic_across_instances(self):
        a = MemoryImage().read(0x5000, 8)
        b = MemoryImage().read(0x5000, 8)
        assert a == b

    def test_different_addresses_mostly_differ(self):
        img = MemoryImage()
        values = {img.read(0x10000 + 8 * i, 8) for i in range(64)}
        assert len(values) > 16

    def test_background_is_zero_heavy(self):
        # Roughly a quarter of background words read as zero (real
        # process images are zero-heavy; Figure 2's value repeatability
        # depends on this).
        zeros = sum(1 for i in range(4000) if _background(i) == 0)
        assert 0.15 < zeros / 4000 < 0.40

    def test_is_written_tracks_explicit_writes(self):
        img = MemoryImage()
        assert not img.is_written(0x1000, 8)
        img.write(0x1000, 8, 5)
        assert img.is_written(0x1000, 8)
        assert not img.is_written(0x1008, 8)


class TestProperties:
    @given(
        addr=st.integers(min_value=0, max_value=1 << 40).map(lambda a: a * 4),
        size=st.sampled_from([4, 8, 16, 32]),
        data=st.data(),
    )
    def test_roundtrip_any_aligned_write(self, addr, size, data):
        value = data.draw(st.integers(min_value=0, max_value=(1 << (8 * size)) - 1))
        img = MemoryImage()
        img.write(addr, size, value)
        assert img.read(addr, size) == value

    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255).map(lambda a: a * 8),
            st.integers(min_value=0, max_value=(1 << 64) - 1),
        ),
        min_size=1, max_size=40,
    ))
    def test_last_write_wins(self, writes):
        img = MemoryImage()
        expected = {}
        for addr, value in writes:
            img.write(addr, 8, value)
            expected[addr] = value
        for addr, value in expected.items():
            assert img.read(addr, 8) == value
