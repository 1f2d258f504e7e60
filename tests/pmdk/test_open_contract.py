"""The pool-open validation contract: in-memory vs serialized images.

``PmemObjPool.open`` takes an in-memory ``PMImage`` and checks only
what can be wrong with one: its layout name and the pool magic in its
payload.  Header magic, size and checksum belong to the serialized form
and are checked where bytes come in: ``PMImage.from_bytes`` and
``Executor.run_raw_image``.
"""

import pytest

from repro.detect import TestingTool
from repro.errors import InvalidImageError
from repro.fuzz.executor import Executor
from repro.pmdk.pool import PmemObjPool
from repro.pmem.image import IMAGE_HEADER_SIZE, PMImage
from repro.workloads import get_workload
from repro.workloads.base import RunOutcome
from repro.workloads.mapcli import parse_commands

CMDS = parse_commands(b"i 5 1\ni 9 2\ng 5\nr 9\n")


def seed_image(name="hashmap_atomic"):
    return get_workload(name).create_image()


class TestInMemoryOpen:
    def test_layout_mismatch_message_matches_serialized_check(self):
        image = seed_image()
        with pytest.raises(InvalidImageError) as opened:
            PmemObjPool.open(image, "other_layout")
        with pytest.raises(InvalidImageError) as parsed:
            PMImage.from_bytes(image.to_bytes(),
                               expected_layout="other_layout")
        assert str(opened.value) == str(parsed.value) == (
            f"layout mismatch: image is {image.layout!r}, "
            f"expected 'other_layout'")

    def test_bad_pool_magic_raises(self):
        image = seed_image()
        image.payload[0] ^= 0xFF
        with pytest.raises(InvalidImageError, match="pool magic mismatch"):
            PmemObjPool.open(image, image.layout)

    def test_bad_pool_magic_is_an_invalid_image_outcome(self):
        image = seed_image()
        image.payload[3] ^= 0x10
        result = get_workload("hashmap_atomic").run(image, CMDS)
        assert result.outcome is RunOutcome.INVALID_IMAGE
        assert "pool magic mismatch" in result.error


class TestCallerImageUntouched:
    def _assert_untouched(self, image, run):
        payload = image.payload
        before = bytes(payload)
        run(image)
        assert image.payload is payload
        assert bytes(image.payload) == before

    def test_clean_run(self):
        self._assert_untouched(
            seed_image(), lambda img: get_workload("hashmap_atomic").run(
                img, CMDS))

    def test_crash_run(self):
        self._assert_untouched(
            seed_image(), lambda img: get_workload("hashmap_atomic").run(
                img, CMDS, crash_at_fence=4))

    def test_executor_run(self):
        ex = Executor(lambda: get_workload("hashmap_atomic"))
        self._assert_untouched(seed_image(),
                               lambda img: ex.run(img, b"i 5 1\ng 5\n"))

    def test_detection_battery(self):
        tool = TestingTool(lambda: get_workload("hashmap_atomic"))
        self._assert_untouched(seed_image(),
                               lambda img: tool.test(img, CMDS))


class TestHostileSerializedBytes:
    """``run_raw_image`` still validates every header field."""

    @staticmethod
    def _run(data):
        ex = Executor(lambda: get_workload("hashmap_atomic"))
        return ex.run_raw_image(data, b"g 5\n")

    def test_valid_bytes_execute(self):
        assert self._run(seed_image().to_bytes()).outcome is RunOutcome.OK

    def test_bad_checksum_rejected(self):
        data = bytearray(seed_image().to_bytes())
        data[IMAGE_HEADER_SIZE + 5] ^= 0x01
        result = self._run(bytes(data))
        assert result.outcome is RunOutcome.INVALID_IMAGE
        assert "checksum" in result.error

    def test_bad_magic_rejected(self):
        data = bytearray(seed_image().to_bytes())
        data[0] ^= 0xFF
        result = self._run(bytes(data))
        assert result.outcome is RunOutcome.INVALID_IMAGE
        assert "bad magic" in result.error

    @pytest.mark.parametrize("cut", [1, 4096])
    def test_truncated_payload_rejected(self, cut):
        result = self._run(seed_image().to_bytes()[:-cut])
        assert result.outcome is RunOutcome.INVALID_IMAGE
        assert "size mismatch" in result.error

    def test_truncated_header_rejected(self):
        result = self._run(seed_image().to_bytes()[:IMAGE_HEADER_SIZE - 1])
        assert result.outcome is RunOutcome.INVALID_IMAGE
        assert "truncated" in result.error
