"""Tests for image deduplication and tiered test-case storage."""

import zlib

import pytest

from repro.core.dedup import ImageStore
from repro.core.storage import TestCaseStorage
from repro.errors import (CorpusCorruptionError, InvalidImageError,
                          StorageFaultError)
from repro.pmem.image import IMAGE_HEADER_SIZE, PMImage
from repro.resilience.faults import EnvFaultInjector, FaultPlan


def image_with(byte, size=4096):
    img = PMImage.create("t", size)
    img.payload[0] = byte
    return img


class TestImageStore:
    def test_put_get_round_trip(self):
        store = ImageStore()
        image_id, is_new = store.put(image_with(1))
        assert is_new
        restored = store.get(image_id)
        assert restored.payload[0] == 1

    def test_duplicates_rejected(self):
        store = ImageStore()
        _, first = store.put(image_with(1))
        _, second = store.put(image_with(1))
        assert first and not second
        assert store.duplicates_rejected == 1
        assert len(store) == 1

    def test_distinct_payloads_kept(self):
        store = ImageStore()
        store.put(image_with(1))
        store.put(image_with(2))
        assert len(store) == 2

    def test_compression_saves_space(self):
        store = ImageStore(compress=True)
        store.put(image_with(1, size=64 * 1024))
        assert store.stored_bytes < store.raw_bytes
        assert store.compression_ratio > 5

    def test_uncompressed_mode(self):
        store = ImageStore(compress=False)
        store.put(image_with(1, size=4096))
        assert store.compression_ratio == 1.0
        assert store.get(store.put(image_with(1))[0]).payload[0] == 1

    def test_maybe_get(self):
        store = ImageStore()
        assert store.maybe_get("nope") is None
        image_id, _ = store.put(image_with(3))
        assert store.maybe_get(image_id) is not None
        assert store.contains(image_id)


class TestTieredStorage:
    def test_save_load_round_trip(self):
        storage = TestCaseStorage()
        image_id, _ = storage.save(image_with(7))
        assert storage.load(image_id).payload[0] == 7

    def test_staging_hit_avoids_decompression(self):
        storage = TestCaseStorage()
        image_id, _ = storage.save(image_with(7))
        storage.load(image_id)
        before = storage.decompressions
        storage.load(image_id)  # staged: no new decompression
        assert storage.decompressions == before

    def test_pm_budget_evicts_lru(self):
        storage = TestCaseStorage(pm_budget_bytes=10 * 1024)
        ids = [storage.save(image_with(i, size=4096))[0] for i in range(6)]
        for image_id in ids:
            storage.load(image_id)
        assert storage.evictions > 0
        assert storage.staged_bytes <= 10 * 1024 + 4096

    def test_evicted_image_still_loadable(self):
        storage = TestCaseStorage(pm_budget_bytes=8 * 1024)
        ids = [storage.save(image_with(i, size=4096))[0] for i in range(5)]
        for image_id in ids:
            storage.load(image_id)
        # The first image was evicted from staging but lives on "SSD".
        assert storage.load(ids[0]).payload[0] == 0



def shaped_image(shape):
    """An image whose non-zero bytes end where ``shape`` says; returns
    ``(image, expected stored payload prefix length)``."""
    if shape == "all-zero":
        return PMImage.create("t", 4 * 4096), 0
    if shape == "no-zero-tail":
        image = PMImage.create("t", 4 * 4096)
        image.payload[0] = 1
        image.payload[-1] = 2
        return image, 4 * 4096
    if shape == "tail-mid-window":
        image = PMImage.create("t", 8 * 4096)
        image.payload[100] = 3
        image.payload[4096 + 1500] = 4
        return image, 2 * 4096
    assert shape == "odd-length"
    image = PMImage.create("t", 3 * 4096 + 777)
    image.payload[3 * 4096 + 5] = 5
    return image, 3 * 4096 + 777


SHAPES = ["all-zero", "no-zero-tail", "tail-mid-window", "odd-length"]


class TestPrefixStorage:
    """Compressed entries hold only the written prefix; reads restore
    the zero tail and return exactly what ``to_bytes`` returns."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_round_trip_is_byte_exact(self, shape):
        image, used = shaped_image(shape)
        store = ImageStore()
        image_id, is_new = store.put(image)
        assert is_new and image_id == image.content_hash()
        assert len(zlib.decompress(store._by_hash[image_id])) \
            == IMAGE_HEADER_SIZE + used
        assert store.get(image_id).payload == image.payload
        assert store.raw_serialized(image_id) == image.to_bytes()
        assert store.raw_bytes == len(image.to_bytes())

    @pytest.mark.parametrize("shape", SHAPES)
    def test_uncompressed_store_keeps_full_image(self, shape):
        image, _ = shaped_image(shape)
        store = ImageStore(compress=False)
        image_id, _ = store.put(image)
        assert store._by_hash[image_id] == image.to_bytes()
        assert store.stored_bytes == store.raw_bytes

    def test_legacy_full_image_blob_still_decodes(self):
        image, _ = shaped_image("tail-mid-window")
        store = ImageStore()
        image_id, _ = store.put(image)
        store._by_hash[image_id] = zlib.compress(image.to_bytes(), 6)
        assert store.raw_serialized(image_id) == image.to_bytes()
        assert store.get(image_id).payload == image.payload

    def test_stored_prefix_alone_is_not_a_valid_image(self):
        image, _ = shaped_image("tail-mid-window")
        store = ImageStore()
        image_id, _ = store.put(image)
        with pytest.raises(InvalidImageError, match="size mismatch"):
            PMImage.from_bytes(zlib.decompress(store._by_hash[image_id]))

    @pytest.mark.parametrize("damage", ["truncate", "bitflip"])
    def test_damaged_prefix_blob_is_genuine_damage(self, damage):
        image, _ = shaped_image("tail-mid-window")
        store = ImageStore()
        image_id, _ = store.put(image)
        blob = bytearray(store._by_hash[image_id])
        if damage == "truncate":
            del blob[len(blob) // 2:]
        else:
            blob[len(blob) // 2] ^= 0x10
        store._by_hash[image_id] = bytes(blob)
        with pytest.raises(CorpusCorruptionError):
            store.get(image_id)
        assert store.corrupt_quarantined == 1
        assert not store.contains(image_id)

    def test_injected_corrupt_read_is_a_torn_read(self):
        image, _ = shaped_image("tail-mid-window")
        inj = EnvFaultInjector(FaultPlan.parse("storage-corrupt:1.0"))
        store = ImageStore(env_faults=inj)
        image_id, _ = store.put(image)
        for _ in range(4):
            with pytest.raises(StorageFaultError) as err:
                store.get(image_id)
            assert err.value.transient
        assert store.corrupt_quarantined == 0
        store.env_faults = None
        assert store.get(image_id).payload == image.payload
