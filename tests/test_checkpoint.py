"""Binary checkpoint round trips, integrity checks, and byte stability."""

import errno
import struct

import numpy as np
import pytest

import redae.checkpoint as C
import redae.network as N
import redae.optim as O
from redae.data import generate_phantoms
from redae.errors import ConfigError, DataError
from redae.tensor import Rng


def trained_net(variant="sa-re-dae", seed=0):
    samples = generate_phantoms(4, 32, 32, Rng(seed))
    net = N.build(variant, (2, 3), 3, Rng(seed))
    cfg = O.TrainConfig(learning_rate=1e-3, epochs=1, seed=seed,
                        val_fraction=0.0)
    O.train(net, samples, None, cfg)
    return net


class TestRoundTrip:
    @pytest.mark.parametrize("variant", N.VARIANTS)
    def test_topology_and_weights_survive(self, tmp_path, variant):
        net = trained_net(variant)
        p = str(tmp_path / "m.ckpt")
        C.save(net, p)
        back = C.load(p)
        assert back.variant == net.variant
        assert back.widths == net.widths
        assert back.classes == net.classes
        # parameters agree to float32 resolution
        for (na, ta), (nb, tb) in zip(N.named_parameters(net),
                                      N.named_parameters(back)):
            assert na == nb
            assert np.array_equal(tb.data,
                                  ta.data.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.class_weights.w, net.class_weights.w)

    def test_logits_reproduced_within_tolerance(self, tmp_path):
        net = trained_net()
        p = str(tmp_path / "m.ckpt")
        C.save(net, p)
        back = C.load(p)
        x = Rng(9).tensor_normal((1, 1, 32, 32), scale=0.2)
        x.data[:] = np.abs(x.data) % 1.0
        a = N.forward(net, x).data
        b = N.forward(back, x).data
        rel = np.abs(a - b) / np.maximum(1.0, np.abs(a))
        assert rel.max() <= 1e-5

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        net = trained_net()
        p = str(tmp_path / "m.ckpt")
        C.save(net, p)

        def normal(self, shape, scale=1.0):
            raise AssertionError("load drew a random initialisation")

        monkeypatch.setattr(Rng, "normal", normal)
        back = C.load(p)
        for (na, ta), (nb, tb) in zip(N.named_parameters(net), N.named_parameters(back)):
            assert na == nb and tb.data.dtype == np.float32
            assert ta.data.tobytes() == tb.data.tobytes(), na
        for (na, a), (nb, b) in zip(N.named_buffers(net), N.named_buffers(back)):
            assert na == nb and a.tobytes() == b.tobytes(), na

    def test_save_load_save_is_byte_stable(self, tmp_path):
        net = trained_net()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        C.save(net, str(p1))
        C.save(C.load(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


    def test_failed_write_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ckpt"
        C.save(trained_net(seed=0), str(p))
        before = p.read_bytes()
        real_open = open

        class HalfThenFull:
            """A file whose write stores half the bytes, then runs out of space."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()
                return False

            def write(self, data):
                self.f.write(bytes(data[:len(data) // 2]))
                self.f.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(C, "open", lambda *a, **k: HalfThenFull(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            C.save(trained_net(seed=1), str(p))
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]  # no temporary left

    def test_folded_copy_is_not_saved(self, tmp_path):
        p = tmp_path / "m.ckpt"
        with pytest.raises(ConfigError, match="folded inference copy"):
            C.save(N.fold(trained_net()), str(p))
        assert list(tmp_path.iterdir()) == []


class TestIntegrity:
    def _saved(self, tmp_path):
        p = tmp_path / "m.ckpt"
        C.save(trained_net(), str(p))
        return p

    def test_magic_pinned(self, tmp_path):
        p = self._saved(tmp_path)
        assert p.read_bytes()[:5] == b"REDAE"

    def test_bad_magic_rejected(self, tmp_path):
        p = self._saved(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[:5] = b"NOPEX"
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="magic"):
            C.load(str(p))

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        p = self._saved(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="CRC"):
            C.load(str(p))

    def test_truncated_file_rejected(self, tmp_path):
        p = self._saved(tmp_path)
        p.write_bytes(p.read_bytes()[:40])
        with pytest.raises(DataError):
            C.load(str(p))

    def test_future_version_rejected(self, tmp_path):
        p = self._saved(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[5:7] = struct.pack("<H", 99)
        # keep the CRC consistent so the version check itself is exercised
        import zlib
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            C.load(str(p))

    @staticmethod
    def _rewrite_tensors(p, edit):
        """Re-encode the tensor records through `edit(records) -> (records,
        tail)`, append `tail` and fix the CRC."""
        import zlib
        raw = p.read_bytes()[:-4]
        (n,) = struct.unpack_from("<H", raw, 7)  # variant length, after magic + version
        pos = 9 + n
        _, _, classes, n_widths = struct.unpack_from("<IIII", raw, pos)
        pos += 16 + 4 * n_widths + 8 * classes
        head, (count,) = raw[:pos], struct.unpack_from("<I", raw, pos)
        pos += 4
        records = []
        for _ in range(count):
            (n,) = struct.unpack_from("<H", raw, pos)
            shape = struct.unpack_from("<IIII", raw, pos + 2 + n)
            end = pos + 2 + n + 16 + 4 * int(np.prod(shape))
            records.append(raw[pos:end])
            pos = end
        assert pos == len(raw)
        records, tail = edit(records)
        body = head + struct.pack("<I", len(records)) + b"".join(records) + tail
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))

    def test_missing_tensor_rejected(self, tmp_path):
        p = self._saved(tmp_path)
        self._rewrite_tensors(p, lambda ts: (ts[1:], b""))
        with pytest.raises(DataError, match="missing tensors enc0.conv.filters"):
            C.load(str(p))

    def test_duplicate_tensor_rejected(self, tmp_path):
        p = self._saved(tmp_path)
        self._rewrite_tensors(p, lambda ts: (ts + ts[:1], b""))
        with pytest.raises(DataError, match="twice"):
            C.load(str(p))

    def test_trailing_bytes_rejected(self, tmp_path):
        p = self._saved(tmp_path)
        self._rewrite_tensors(p, lambda ts: (ts, b"\0" * 8))
        with pytest.raises(DataError, match="trailing"):
            C.load(str(p))

    # CRC-valid files whose tensor records do not fit the topology
    def test_unknown_tensor_rejected(self, tmp_path):
        p = self._saved(tmp_path)
        self._rewrite_tensors(p, lambda ts: ([ts[0].replace(b"enc0.", b"enc9.", 1)] + ts[1:], b""))
        with pytest.raises(DataError, match="unknown tensor 'enc9.conv.filters'"):
            C.load(str(p))

    def test_wrong_tensor_shape_rejected(self, tmp_path):
        # enc0.conv.filters (2, 1, 3, 3) recorded as (1, 2, 3, 3): same payload size
        p = self._saved(tmp_path)
        head = struct.pack("<H", 17) + b"enc0.conv.filters"

        def swap(ts):
            assert ts[0][19:35] == struct.pack("<IIII", 2, 1, 3, 3)
            return [head + struct.pack("<IIII", 1, 2, 3, 3) + ts[0][35:]] + ts[1:], b""
        self._rewrite_tensors(p, swap)
        with pytest.raises(DataError, match=r"'enc0.conv.filters' shape \(1, 2, 3, 3\) does not"):
            C.load(str(p))

    def test_truncated_payload_rejected(self, tmp_path):
        p = self._saved(tmp_path)
        self._rewrite_tensors(p, lambda ts: (ts[:-1] + [ts[-1][:-4]], b""))
        with pytest.raises(DataError, match="truncated checkpoint"):
            C.load(str(p))

    def test_unbuildable_variant_is_data_error(self, tmp_path):
        # a file naming a variant this version cannot build is bad data,
        # not a configuration mistake of the caller
        import zlib
        p = self._saved(tmp_path)
        raw = bytearray(p.read_bytes()[:-4])
        i = raw.index(b"sa-re-dae")
        raw[i:i + 9] = b"sa-re-dax"
        p.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(bytes(raw))))
        with pytest.raises(DataError, match="unknown variant 'sa-re-dax'"):
            C.load(str(p))

    @classmethod
    def _set_tensor(cls, p, name, edit):
        """Rewrite tensor `name`'s float32 payload through `edit(array)`."""
        raw = name.encode()
        head = struct.pack("<H", len(raw)) + raw

        def patch(records):
            out = []
            for rec in records:
                if rec.startswith(head):
                    at = len(head) + 16
                    arr = np.frombuffer(rec[at:], "<f4").copy()
                    edit(arr)
                    rec = rec[:at] + arr.tobytes()
                out.append(rec)
            return out, b""
        cls._rewrite_tensors(p, patch)

    @pytest.mark.parametrize("name", ["enc0.conv.filters", "dec1.bn.running_mean"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, name, value):
        p = self._saved(tmp_path)
        self._set_tensor(p, name, lambda a: a.__setitem__(1, value))
        with pytest.raises(DataError, match=f"'{name}' holds non-finite"):
            C.load(str(p))

    def test_negative_running_variance_rejected(self, tmp_path):
        p = self._saved(tmp_path)
        self._set_tensor(p, "enc1.bn.running_var", lambda a: a.__setitem__(0, -0.5))
        with pytest.raises(DataError, match="'enc1.bn.running_var' holds a negative"):
            C.load(str(p))

    def test_negative_class_weight_is_data_error(self, tmp_path):
        import zlib
        p = self._saved(tmp_path)
        raw = bytearray(p.read_bytes()[:-4])
        weights = np.asarray(C.load(str(p)).class_weights.w, "<f8").tobytes()
        i = raw.index(weights)
        raw[i:i + 8] = struct.pack("<d", -1.0)
        p.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(bytes(raw))))
        with pytest.raises(DataError, match="class weights"):
            C.load(str(p))

    @pytest.mark.parametrize("variant,kernel,widths", [("max-only", 4194305, (16, 32)),
                                                       ("re-dae", 3, (16777216, 16))])
    def test_topology_larger_than_the_file_is_refused_unallocated(self, tmp_path, variant,
                                                                  kernel, widths):
        # a header of 70-odd bytes and no tensors whose filters would take
        # petabytes: numpy refuses them at once, so without the check load
        # raised MemoryError
        import tracemalloc
        import zlib
        name = variant.encode()
        body = C.MAGIC + struct.pack("<HH", C.VERSION, len(name)) + name
        body += struct.pack("<IIII", 1, kernel, 3, len(widths)) + struct.pack("<II", *widths)
        body += np.ones(3, "<f8").tobytes() + struct.pack("<I", 0)
        p = tmp_path / "huge.ckpt"
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert p.stat().st_size < 100
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="topology does not fit in the file"):
                C.load(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rewrite_helper_round_trips(self, tmp_path):
        p = self._saved(tmp_path)
        before = p.read_bytes()
        self._rewrite_tensors(p, lambda ts: (ts, b""))
        assert p.read_bytes() == before

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            C.load(str(tmp_path / "absent.ckpt"))
