"""Binary tensor file and manifest round-trip tests."""

import struct

import numpy as np
import pytest

from aulang.tenfile import MAGIC, read_kv, read_tensor, write_kv, write_tensor


def test_round_trip_preserves_float32_bits(tmp_path):
    rng = np.random.default_rng(0)
    for shape in ((), (5,), (2, 3), (2, 3, 4, 5)):
        arr = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path / "t.ten"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert back.shape == arr.shape
        assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))


def test_header_layout(tmp_path):
    path = tmp_path / "t.ten"
    write_tensor(path, np.ones((2, 3), dtype=np.float32))
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert struct.unpack_from("<I", blob, 4) == (2,)
    assert struct.unpack_from("<2I", blob, 8) == (2, 3)
    assert len(blob) == 4 + 4 + 8 + 6 * 4


def test_bad_magic_and_truncation_rejected(tmp_path):
    path = tmp_path / "bad.ten"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_tensor(path)
    write_tensor(path, np.ones(4, dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        read_tensor(path)
    # headers cut short: inside the rank, before it, inside the dims, and a
    # rank whose dims would run far past the end of the file
    for blob in (b"TEN1\x01\x00", b"TEN1", b"TEN1" + struct.pack("<2I", 2, 3),
                 b"TEN1" + struct.pack("<I", 0xFFFFFFFF)):
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            read_tensor(path)


def test_kv_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    write_kv(path, {"alpha": 1, "name": "x y", "rates": "0.5,0.25"})
    assert read_kv(path) == {"alpha": "1", "name": "x y", "rates": "0.5,0.25"}
    path.write_text("just a line\n")
    with pytest.raises(ValueError):
        read_kv(path)
