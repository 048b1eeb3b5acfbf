import json

import numpy as np
import pytest

from cellforest.volume import (
    LabelVolume,
    ScalarVolume,
    TruncatedDataError,
    VolumeFormatError,
    normalize,
    read_volume,
    write_volume,
)


def write_raw_pair(tmp_path, name, header, payload_bytes):
    (tmp_path / f"{name}.mvol.json").write_text(json.dumps(header))
    (tmp_path / header.get("data", f"{name}.raw")).write_bytes(payload_bytes)
    return str(tmp_path / f"{name}.mvol.json")


def test_read_u8_layout(tmp_path):
    path = write_raw_pair(
        tmp_path,
        "t",
        {"dims": [2, 2, 1], "spacing": [1.0, 1.0, 1.0], "dtype": "u8", "data": "t.raw"},
        bytes([0, 255, 128, 64]),
    )
    v = read_volume(path)
    assert isinstance(v, ScalarVolume)
    assert v.dims == (2, 2, 1)
    # x-fastest: [z, y, x]
    assert v.data[0, 0, 0] == 0
    assert v.data[0, 0, 1] == 255
    assert v.data[0, 1, 0] == 128
    assert v.data[0, 1, 1] == 64


def test_read_u32_single_voxel_is_labels(tmp_path):
    path = write_raw_pair(
        tmp_path,
        "one",
        {"dims": [1, 1, 1], "spacing": [2.0, 2.0, 2.0], "dtype": "u32", "data": "one.raw"},
        np.array([7], dtype="<u4").tobytes(),
    )
    v = read_volume(path)
    assert isinstance(v, LabelVolume)
    assert v.labels[0, 0, 0] == 7


def test_read_truncated_u16(tmp_path):
    path = write_raw_pair(
        tmp_path,
        "short",
        {"dims": [2, 2, 1], "spacing": [1, 1, 1], "dtype": "u16", "data": "short.raw"},
        bytes(4),
    )
    with pytest.raises(TruncatedDataError):
        read_volume(path)


@pytest.mark.parametrize("missing", ["dims", "spacing", "dtype", "data"])
def test_read_rejects_missing_header_key(tmp_path, missing):
    header = {"dims": [1, 1, 1], "spacing": [1, 1, 1], "dtype": "u8", "data": "m.raw"}
    del header[missing]
    path = write_raw_pair(tmp_path, "m", header, bytes(1))
    with pytest.raises(VolumeFormatError):
        read_volume(path)


def test_read_rejects_unknown_dtype(tmp_path):
    path = write_raw_pair(
        tmp_path,
        "x",
        {"dims": [1, 1, 1], "spacing": [1, 1, 1], "dtype": "i64", "data": "x.raw"},
        bytes(8),
    )
    with pytest.raises(VolumeFormatError):
        read_volume(path)


def test_roundtrip_u8_bytes_identical(tmp_path):
    path = write_raw_pair(
        tmp_path,
        "t",
        {"dims": [2, 2, 1], "spacing": [1.0, 1.0, 1.0], "dtype": "u8", "data": "t.raw"},
        bytes([0, 255, 128, 64]),
    )
    v = read_volume(path)
    write_volume(v, str(tmp_path / "copy.mvol.json"))
    assert (tmp_path / "copy.raw").read_bytes() == (tmp_path / "t.raw").read_bytes()


def test_roundtrip_u32_labels(tmp_path):
    labels = np.arange(1, 28, dtype=np.uint32).reshape(3, 3, 3)
    lv = LabelVolume(labels, (0.5, 0.5, 2.0))
    path = write_volume(lv, str(tmp_path / "lab.mvol.json"))
    back = read_volume(path)
    assert isinstance(back, LabelVolume)
    np.testing.assert_array_equal(back.labels, labels)
    assert back.spacing == lv.spacing


@pytest.mark.parametrize("dtype", ["u8", "u16", "u32", "f32"])
def test_roundtrip_random_every_dtype(tmp_path, dtype):
    rng = np.random.default_rng(hash(dtype) % 2**32)
    shape = (3, 4, 5)
    if dtype == "f32":
        arr = rng.random(shape, dtype=np.float32)
        vol = ScalarVolume(arr, (1.0, 1.5, 2.0))
    elif dtype == "u32":
        arr = rng.integers(0, 2**31, shape).astype(np.uint32)
        vol = LabelVolume(arr, (1.0, 1.5, 2.0))
    else:
        info = np.iinfo(dtype.replace("u", "uint"))
        arr = rng.integers(0, info.max + 1, shape).astype(info.dtype)
        vol = ScalarVolume(arr, (1.0, 1.5, 2.0))
    path = write_volume(vol, str(tmp_path / f"r_{dtype}.mvol.json"))
    back = read_volume(path)
    data = back.labels if isinstance(back, LabelVolume) else back.data
    np.testing.assert_array_equal(data, arr)


def test_write_to_directory_errors(tmp_path):
    (tmp_path / "d.mvol.json").mkdir()
    v = ScalarVolume(np.zeros((1, 1, 1)))
    with pytest.raises(OSError):
        write_volume(v, str(tmp_path / "d.mvol.json"))


def test_normalize_affine_map():
    v = ScalarVolume(np.array([0, 255, 128], dtype=np.uint8).reshape(1, 1, 3))
    out = normalize(v)
    np.testing.assert_allclose(out.data.ravel(), [0.0, 1.0, 128 / 255], atol=1e-12)


def test_normalize_constant_to_zero():
    v = ScalarVolume(np.full((2, 2, 2), 40.0))
    assert np.all(normalize(v).data == 0.0)


def test_normalize_identity_when_already_unit_range():
    data = np.array([0.0, 0.25, 1.0]).reshape(1, 1, 3)
    out = normalize(ScalarVolume(data))
    np.testing.assert_array_equal(out.data, data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_rejects_non_finite(bad):
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[1, 0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        normalize(ScalarVolume(data))


def test_normalize_idempotent():
    rng = np.random.default_rng(0)
    v = ScalarVolume(rng.random((4, 4, 4)) * 900 + 50)
    once = normalize(v)
    twice = normalize(once)
    np.testing.assert_allclose(twice.data, once.data, atol=1e-12)
