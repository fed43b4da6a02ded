import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from latentdepth import data
from latentdepth.autodiff import resample, resize_matrix
from latentdepth.data import (BG_FAR, BG_NEAR, SHADE_SCALE, DataError,
                              DimensionMismatchError, ImageFormatError,
                              ManifestRecord, TruncatedPayloadError,
                              load_manifest, load_rgbd_pair, preprocess,
                              read_pgm16, read_ppm, save_manifest,
                              save_rgbd_pair, synth_scene, synth_surfaces,
                              write_pgm16, write_ppm)


class TestNetpbm:
    def test_ppm_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (10, 7, 3), dtype=np.uint8)
        path = str(tmp_path / "a.ppm")
        write_ppm(path, img)
        np.testing.assert_array_equal(read_ppm(path), img)

    def test_pgm16_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 65536, (6, 9), dtype=np.uint16)
        path = str(tmp_path / "a.pgm")
        write_pgm16(path, img)
        np.testing.assert_array_equal(read_pgm16(path), img)

    def test_pgm16_big_endian_on_disk(self, tmp_path):
        path = str(tmp_path / "b.pgm")
        write_pgm16(path, np.array([[0x0102]], dtype=np.uint16))
        blob = open(path, "rb").read()
        assert blob.endswith(b"\x01\x02")

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n"
                         + bytes(6))
        assert read_ppm(str(path)).shape == (1, 2, 3)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "d.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ImageFormatError):
            read_ppm(str(path))

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "e.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ImageFormatError, match="maxval"):
            read_ppm(str(p))
        q = tmp_path / "e.pgm"
        q.write_bytes(b"P5\n1 1\n255\n\x00\x00")
        with pytest.raises(ImageFormatError, match="maxval"):
            read_pgm16(str(q))

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "f.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(TruncatedPayloadError):
            read_ppm(str(p))
        q = tmp_path / "f.pgm"
        q.write_bytes(b"P5\n2 2\n65535\n" + bytes(7))
        with pytest.raises(TruncatedPayloadError):
            read_pgm16(str(q))
        # the header's dimensions never size the read: a 20-digit width
        # would overflow it, and 100000x100000 would exhaust memory
        for size in (b"%d 1" % 10 ** 19, b"100000 100000"):
            p.write_bytes(b"P6\n%s\n255\n" % size + bytes(30))
            with pytest.raises(TruncatedPayloadError, match="got 30$"):
                read_ppm(str(p))
            q.write_bytes(b"P5\n%s\n65535\n" % size + bytes(30))
            with pytest.raises(TruncatedPayloadError, match="got 30$"):
                read_pgm16(str(q))

    def test_read_from_pipe(self, tmp_path):
        # a pipe cannot seek: the payload is read to its end
        path = str(tmp_path / "a.ppm")
        write_ppm(path, np.random.default_rng(2).integers(
            0, 256, (5, 7, 3), dtype=np.uint8))
        fifo = str(tmp_path / "fifo.ppm")
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(open(path, "rb").read())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            got = read_ppm(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(got, read_ppm(path))

    def test_garbage_header_token(self, tmp_path):
        p = tmp_path / "g.ppm"
        p.write_bytes(b"P6\nxx 1\n255\n" + bytes(3))
        with pytest.raises(ImageFormatError, match="token"):
            read_ppm(str(p))


class TestRgbdPairs:
    def test_unit_conversion_1500mm(self, tmp_path):
        depth_mm = np.full((16, 16), 1500, dtype=np.uint16)
        rgb = np.full((16, 16, 3), 128, dtype=np.uint8)
        write_ppm(str(tmp_path / "a.ppm"), rgb)
        write_pgm16(str(tmp_path / "a.pgm"), depth_mm)
        sample = load_rgbd_pair(str(tmp_path / "a.ppm"),
                                str(tmp_path / "a.pgm"), 16, 16)
        assert np.all(sample.depth == 1.5)
        assert sample.mask.all()

    def test_zero_depth_is_invalid(self, tmp_path):
        depth_mm = np.array([[0, 2000]], dtype=np.uint16)
        write_ppm(str(tmp_path / "a.ppm"),
                  np.zeros((1, 2, 3), dtype=np.uint8))
        write_pgm16(str(tmp_path / "a.pgm"), depth_mm)
        sample = load_rgbd_pair(str(tmp_path / "a.ppm"),
                                str(tmp_path / "a.pgm"), 1, 2)
        np.testing.assert_array_equal(sample.mask, [[False, True]])

    def test_save_load_round_trip(self, tmp_path):
        src = synth_scene(3, 16, 32, 2)
        save_rgbd_pair(src, str(tmp_path / "r.ppm"), str(tmp_path / "r.pgm"))
        back = load_rgbd_pair(str(tmp_path / "r.ppm"),
                              str(tmp_path / "r.pgm"), 16, 32)
        # quantization: 1/255 on rgb, 1 mm on depth
        assert np.abs(back.rgb - src.rgb).max() <= 0.5 / 255.0 + 1e-12
        assert np.abs(back.depth - src.depth).max() <= 0.5e-3 + 1e-12
        np.testing.assert_array_equal(back.mask, src.mask)

    def test_dimension_mismatch(self, tmp_path):
        write_ppm(str(tmp_path / "a.ppm"), np.zeros((2, 2, 3), np.uint8))
        write_pgm16(str(tmp_path / "a.pgm"), np.ones((2, 3), np.uint16))
        with pytest.raises(DimensionMismatchError):
            load_rgbd_pair(str(tmp_path / "a.ppm"), str(tmp_path / "a.pgm"),
                           2, 2)


class TestPreprocess:
    def _raw(self, h, w, seed=0):
        rng = np.random.default_rng(seed)
        rgb8 = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        depth_mm = rng.integers(1000, 5001, (h, w)).astype(np.uint16)
        depth_mm[rng.random((h, w)) <= 0.1] = 0
        return rgb8, depth_mm

    def test_identity_when_size_matches(self):
        # the resize at the source size, a product with identity matrices,
        # returns the converted frame byte for byte
        for h, w in ((32, 32), (16, 16), (32, 48), (75, 53), (480, 640)):
            rgb8, depth_mm = self._raw(h, w)
            out = preprocess(rgb8, depth_mm, h, w)
            assert out.rgb.tobytes() == data._unit_rgb(rgb8).tobytes()
            assert out.depth.tobytes() == (
                depth_mm.astype(np.float64)[None] / 1000.0).tobytes()
            assert out.mask.tobytes() == (depth_mm > 0).tobytes()

    def test_downscale_shapes(self):
        out = preprocess(*self._raw(64, 48), 32, 16)
        assert out.rgb.shape == (3, 32, 16)
        assert out.depth.shape == (1, 32, 16)
        assert out.mask.shape == (32, 16)

    def test_depth_values_not_invented(self):
        # nearest-neighbor depth: every output value exists in the input
        rgb8, depth_mm = self._raw(64, 64, seed=1)
        out = preprocess(rgb8, depth_mm, 16, 16)
        assert set(out.depth.ravel()) <= set(depth_mm.ravel() / 1000.0)

    def test_mask_follows_depth(self):
        out = preprocess(*self._raw(64, 64, seed=2), 16, 16)
        np.testing.assert_array_equal(out.mask, out.depth[0] > 0)

    def test_rgb_constant_preserved(self):
        out = preprocess(np.full((32, 32, 3), 64, np.uint8),
                         np.full((32, 32), 1000, np.uint16), 16, 16)
        np.testing.assert_allclose(out.rgb, 64 / 255.0, rtol=1e-15)

    def test_upscale_rejected(self):
        with pytest.raises(DataError, match="larger"):
            preprocess(*self._raw(16, 16), 32, 32)

    @pytest.mark.parametrize("h,w,th,tw", [
        (480, 640, 32, 32), (480, 640, 48, 64), (75, 53, 32, 16),
        (64, 48, 64, 16), (64, 48, 64, 48)])
    def test_bits_of_converting_the_whole_frame_first(self, h, w, th, tw):
        # converting only the pixels the resize reads commutes with the
        # conversion: the same bytes as converting the whole frame and
        # resampling the pixels that hold a nonzero weight. Dropping the
        # matrices' zero-weight columns shortens a GEMM, which may change
        # the order in which the BLAS adds a pixel's two terms, so
        # against the whole frame and the whole matrices the resize
        # agrees to one unit in the last place
        rgb8, depth_mm = self._raw(h, w, seed=h + w)
        rgb = rgb8.astype(np.float64).transpose(2, 0, 1) / 255.0
        depth = depth_mm.astype(np.float64)[None] / 1000.0
        # depth by nearest neighbor: the half-pixel source coordinate
        # rounded half to even, then clamped to the frame
        ri, ci = (np.clip(np.rint((np.arange(t) + 0.5) * n / t - 0.5)
                          .astype(np.intp), 0, n - 1)
                  for n, t in ((h, th), (w, tw)))
        out = preprocess(rgb8, depth_mm, th, tw)
        uh, uw = resize_matrix(h, th), resize_matrix(w, tw)
        rows, cols = (np.flatnonzero(u.any(axis=0)) for u in (uh, uw))
        want = resample(rgb[:, rows][:, :, cols], uh[:, rows], uw[:, cols])
        assert out.rgb.tobytes() == want.tobytes()
        np.testing.assert_array_max_ulp(out.rgb, resample(rgb, uh, uw), 1)
        assert out.depth.tobytes() == depth[:, ri][:, :, ci].tobytes()
        assert out.mask.tobytes() == (depth_mm > 0)[ri][:, ci].tobytes()

    @pytest.mark.parametrize("n,tn", [(480, 32), (640, 32), (480, 240),
                                      (75, 32)])
    def test_depth_sampled_where_rgb_is(self, n, tn):
        # each output pixel's depth comes from a source pixel that its
        # RGB weighs, and not from the lighter of the two
        u = resize_matrix(n, tn)
        if n == 20 * tn:  # output pixel i sits at 20i + 9.5: a tie
            assert (u.max(axis=1) == 0.5).all()
        # depth in mm = source row + 1, along rows and then along columns
        rows = np.tile(np.arange(1, n + 1, dtype=np.uint16)[:, None], (1, tn))
        for depth_mm in (rows, rows.T):
            out = preprocess(np.zeros(depth_mm.shape + (3,), np.uint8),
                             depth_mm, tn, tn)
            picked = np.rint(out.depth[0] * 1000).astype(np.intp) - 1
            weight = np.take_along_axis(
                u, picked if depth_mm is rows else picked.T, axis=1)
            assert (weight > 0).all()
            assert (weight == u.max(axis=1, keepdims=True)).all()

    def test_load_converts_only_what_the_resize_reads(self, tmp_path):
        # a 480x640 pair loaded at 32x32 peaks below one float64 copy of
        # the RGB frame
        rgb8, depth_mm = self._raw(480, 640)
        rgb, depth = str(tmp_path / "a.ppm"), str(tmp_path / "a.pgm")
        write_ppm(rgb, rgb8)
        write_pgm16(depth, depth_mm)
        tracemalloc.start()
        try:
            out = load_rgbd_pair(rgb, depth, 32, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.rgb.shape == (3, 32, 32)
        assert peak < rgb8.size * 8

    def test_upscale_rejected_on_load(self, tmp_path):
        rgb, depth = str(tmp_path / "a.ppm"), str(tmp_path / "a.pgm")
        save_rgbd_pair(synth_scene(0, 16, 16, 1), rgb, depth)
        with pytest.raises(DataError, match="larger"):
            load_rgbd_pair(rgb, depth, 32, 16)


class TestManifest:
    def _records(self, tmp_path, n=4):
        records = []
        for i in range(n):
            s = synth_scene(i, 16, 16, 1)
            rgb = str(tmp_path / ("%d.ppm" % i))
            depth = str(tmp_path / ("%d.pgm" % i))
            save_rgbd_pair(s, rgb, depth)
            records.append(ManifestRecord(rgb, depth, "scene%d" % (i // 2),
                                          "train" if i < n - 1 else "test"))
        return records

    def test_round_trip(self, tmp_path):
        records = self._records(tmp_path)
        path = str(tmp_path / "m.json")
        save_manifest(path, records, relative_to=str(tmp_path))
        back = load_manifest(path)
        assert back == records

    def test_relative_paths_resolve_against_manifest(self, tmp_path):
        records = self._records(tmp_path, n=2)
        sub = tmp_path / "sub"
        sub.mkdir()
        path = str(sub / "m.json")
        save_manifest(path, records, relative_to=str(sub))
        back = load_manifest(path)
        assert [os.path.normpath(r.rgb_path) for r in back] == \
            [os.path.normpath(r.rgb_path) for r in records]

    def test_absolute_paths_kept(self, tmp_path):
        records = self._records(tmp_path, n=2)
        assert all(os.path.isabs(r.rgb_path) for r in records)
        sub = tmp_path / "sub"
        sub.mkdir()
        path = str(sub / "m.json")
        save_manifest(path, records)
        assert load_manifest(path) == records

    def test_duplicate_rgb_rejected(self, tmp_path):
        r = self._records(tmp_path, n=1)[0]
        path = str(tmp_path / "m.json")
        save_manifest(path, [r, r])
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(path)

    def test_bad_split_rejected(self, tmp_path):
        r = self._records(tmp_path, n=1)[0]
        path = str(tmp_path / "m.json")
        save_manifest(path, [ManifestRecord(r.rgb_path, r.depth_path,
                                            "s", "validation")])
        with pytest.raises(DataError, match="split"):
            load_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        path = str(tmp_path / "m.json")
        save_manifest(path, [ManifestRecord("nope.ppm", "nope.pgm",
                                            "s", "train")])
        with pytest.raises(DataError, match="missing"):
            load_manifest(path)
        for name in ("nope.ppm", "nope.pgm"):
            (tmp_path / name).write_bytes(b"")
        assert load_manifest(path)[0].scene_id == "s"

    @pytest.mark.parametrize("doc", [
        [], {}, {"records": {}}, {"records": [1]},
        {"records": [{"rgb": "a.ppm", "depth": "a.pgm", "split": "train"}]},
        {"records": [{"rgb": 1, "depth": "a.pgm", "scene": "s",
                      "split": "train"}]},
    ])
    def test_schema_violation_rejected(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        for name in ("a.ppm", "a.pgm"):
            (tmp_path / name).write_bytes(b"")
        with pytest.raises(DataError, match="manifest"):
            load_manifest(str(path))


class TestSynth:
    def test_deterministic(self):
        a = synth_scene(42, 32, 32, 3)
        b = synth_scene(42, 32, 32, 3)
        np.testing.assert_array_equal(a.rgb, b.rgb)
        np.testing.assert_array_equal(a.depth, b.depth)

    def test_different_seeds_differ(self):
        a = synth_scene(1, 32, 32, 3)
        b = synth_scene(2, 32, 32, 3)
        assert not np.array_equal(a.depth, b.depth)

    def test_background_gradient(self):
        bg, _ = synth_surfaces(0, 32, 32, 1)
        assert bg[0, 0] == BG_FAR and bg[-1, 0] == BG_NEAR
        assert np.all(np.diff(bg[:, 0]) < 0)

    def test_occlusion_nearest_surface_wins(self):
        # rebuild the depth map from the surfaces oracle and compare
        seed, h, w, n = 9, 32, 48, 4
        bg, rects = synth_surfaces(seed, h, w, n)
        want = bg.copy()
        for r0, r1, c0, c1, d, _ in rects:
            region = want[r0:r1, c0:c1]
            np.minimum(region, d, out=region)
        sample = synth_scene(seed, h, w, n)
        np.testing.assert_array_equal(sample.depth[0], want)

    def test_green_channel_encodes_depth(self):
        s = synth_scene(5, 32, 32, 2)
        decoded = BG_FAR + 0.5 - SHADE_SCALE * s.rgb[1]
        np.testing.assert_allclose(decoded, s.depth[0], atol=1e-12)

    def test_mask_all_valid_and_in_range(self):
        s = synth_scene(6, 16, 16, 2)
        assert s.mask.all()
        assert s.rgb.min() >= 0.0 and s.rgb.max() <= 1.0
        assert s.depth.min() >= 1.0 and s.depth.max() <= BG_FAR

    def test_dims_validated(self):
        with pytest.raises(DataError):
            synth_surfaces(0, 4, 4, 1)
        with pytest.raises(DataError):
            synth_surfaces(0, 16, 16, 0)
