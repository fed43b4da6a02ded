"""RGB-D ingestion: binary PPM/PGM i/o, preprocessing, manifests, and a
procedural synthetic scene generator for desk-scale runs.

Conventions: RGB is P6 PPM with maxval 255 scaled to [0,1]; depth is P5
16-bit PGM in millimeters with raw 0 as the invalid sentinel, converted
to meters on load. A pair is resized to its target size while it is
still uint8 and uint16, so only the source pixels the resize reads are
converted to float.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import resample, resize_matrix


class DataError(ValueError):
    pass


class ImageFormatError(DataError):
    """Malformed or unsupported netpbm header."""


class TruncatedPayloadError(DataError):
    """Pixel payload shorter than the header promises."""


class DimensionMismatchError(DataError):
    """RGB and depth members of a pair disagree on size."""


# ---------------------------------------------------------------------------
# netpbm i/o

def _read_header(fh, magic):
    if fh.read(2) != magic:
        raise ImageFormatError("expected %s file" % magic.decode())
    fields = []
    while len(fields) < 3:
        tok = b""
        ch = fh.read(1)
        while ch.isspace():
            ch = fh.read(1)
        if ch == b"#":
            fh.readline()
            continue
        while ch and not ch.isspace():
            tok += ch
            ch = fh.read(1)
        if not tok.isdigit():
            raise ImageFormatError("bad header token %r" % tok)
        fields.append(int(tok))
    return fields  # width, height, maxval


def _read_netpbm(path, magic, maxval, nbytes):
    """The header's (height, width) and the rest of the file as its payload
    (nbytes per pixel), read unbuffered in one copy; a pipe works too."""
    kind = "PPM" if magic == b"P6" else "PGM"
    with open(path, "rb", buffering=0) as fh:
        w, h, got = _read_header(fh, magic)
        if got != maxval:
            raise ImageFormatError("%s maxval must be %d, got %d"
                                   % (kind, maxval, got))
        need, raw = w * h * nbytes, fh.read()
        if len(raw) < need:
            raise TruncatedPayloadError("%s payload: expected %d bytes, "
                                        "got %d" % (kind, need, len(raw)))
        return (h, w), memoryview(raw)[:need]


def read_ppm(path):
    """Binary P6 PPM with maxval 255; returns uint8 array (H, W, 3)."""
    shape, raw = _read_netpbm(path, b"P6", 255, 3)
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape + (3,))


def write_ppm(path, arr):
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageFormatError("write_ppm: expected (H, W, 3) array")
    h, w, _ = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(arr.tobytes())


def read_pgm16(path):
    """Binary P5 PGM with maxval 65535 (big-endian); returns uint16 (H, W)."""
    shape, raw = _read_netpbm(path, b"P5", 65535, 2)
    return np.frombuffer(raw, dtype=">u2").reshape(shape).astype(np.uint16)


def write_pgm16(path, arr):
    arr = np.asarray(arr, dtype=np.uint16)
    if arr.ndim != 2:
        raise ImageFormatError("write_pgm16: expected (H, W) array")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n65535\n" % (w, h))
        fh.write(arr.astype(">u2").tobytes())


# ---------------------------------------------------------------------------
# samples

@dataclass
class RgbdSample:
    rgb: np.ndarray     # (3, H, W) float64 in [0, 1]
    depth: np.ndarray   # (1, H, W) float64 meters
    mask: np.ndarray    # (H, W) bool, True = valid


def _unit_rgb(rgb8):
    """A uint8 (H, W, 3) frame as a (3, H, W) float64 array in [0, 1]."""
    return rgb8.astype(np.float64).transpose(2, 0, 1) / 255.0


def load_rgb(path):
    """A P6 PPM as a (3, H, W) float64 array in [0, 1]."""
    return _unit_rgb(read_ppm(path))


def load_rgbd_pair(rgb_path, depth_path, target_h, target_w):
    """A PPM/PGM pair as an RgbdSample resized to target_h x target_w
    (see preprocess)."""
    rgb8 = read_ppm(rgb_path)
    depth_mm = read_pgm16(depth_path)
    if rgb8.shape[:2] != depth_mm.shape:
        raise DimensionMismatchError("rgb is %dx%d but depth is %dx%d"
                                     % (rgb8.shape[0], rgb8.shape[1],
                                        depth_mm.shape[0],
                                        depth_mm.shape[1]))
    return preprocess(rgb8, depth_mm, target_h, target_w)


def depth_to_mm(depth):
    """Meters to the PGM encoding: rounded, clipped uint16 millimeters."""
    return np.clip(np.rint(depth * 1000.0), 0, 65535).astype(np.uint16)


def save_rgbd_pair(sample, rgb_path, depth_path):
    rgb8 = np.clip(np.rint(sample.rgb * 255.0), 0, 255).astype(np.uint8)
    write_ppm(rgb_path, rgb8.transpose(1, 2, 0))
    write_pgm16(depth_path,
                np.where(sample.mask, depth_to_mm(sample.depth[0]), 0))


# ---------------------------------------------------------------------------
# preprocessing

def _nearest_indices(n, tn):
    src = (np.arange(tn) + 0.5) * n / tn - 0.5
    return np.clip(np.rint(src).astype(np.intp), 0, n - 1)


def preprocess(rgb8, depth_mm, target_h, target_w):
    """A uint8 (H, W, 3) RGB frame and its uint16 (H, W) depth map in
    millimeters as an RgbdSample of target_h x target_w: RGB resized
    bilinearly with half-pixel centers, depth and mask by nearest neighbor
    so no depth value is invented across boundaries. Only the source
    pixels that the resize reads are converted to float."""
    h, w = depth_mm.shape
    if target_h > h or target_w > w:
        raise DataError("target %dx%d larger than source %dx%d"
                        % (target_h, target_w, h, w))
    uh, uw = resize_matrix(h, target_h), resize_matrix(w, target_w)
    # the source rows and columns that hold a nonzero weight
    rows, cols = (np.flatnonzero(u.any(axis=0)) for u in (uh, uw))
    rgb = resample(_unit_rgb(rgb8[rows][:, cols]), uh[:, rows], uw[:, cols])
    ri = _nearest_indices(h, target_h)
    ci = _nearest_indices(w, target_w)
    depth_mm = depth_mm[ri][:, ci]
    return RgbdSample(rgb=rgb,
                      depth=depth_mm.astype(np.float64)[None] / 1000.0,
                      mask=depth_mm > 0)


# ---------------------------------------------------------------------------
# manifest

@dataclass(frozen=True)
class ManifestRecord:
    rgb_path: str
    depth_path: str
    scene_id: str
    split: str  # train | test


def load_manifest(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise DataError("manifest %s has no records list" % path)
    base = os.path.dirname(os.path.abspath(path))
    records = []
    seen_rgb = set()
    for rec in doc["records"]:
        if not isinstance(rec, dict) or not all(
                isinstance(rec.get(k), str)
                for k in ("rgb", "depth", "scene", "split")):
            raise DataError("manifest record %r needs rgb, depth, scene and "
                            "split strings" % (rec,))
        # join returns an absolute path unchanged
        rgb = os.path.join(base, rec["rgb"])
        depth = os.path.join(base, rec["depth"])
        scene = rec["scene"]
        split = rec["split"]
        if not scene:
            raise DataError("manifest record with empty scene id")
        if split not in ("train", "test"):
            raise DataError("manifest split must be train or test, got %r"
                            % split)
        if rgb in seen_rgb:
            raise DataError("duplicate rgb path in manifest: %s" % rgb)
        seen_rgb.add(rgb)
        if not (os.path.exists(rgb) and os.path.exists(depth)):
            raise DataError("manifest path missing: %s / %s" % (rgb, depth))
        records.append(ManifestRecord(rgb, depth, scene, split))
    return records


def save_manifest(path, records, relative_to=None):
    def rel(p):
        return os.path.relpath(p, relative_to) if relative_to else p

    doc = {"records": [{"rgb": rel(r.rgb_path), "depth": rel(r.depth_path),
                        "scene": r.scene_id, "split": r.split}
                       for r in records]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# synthetic scenes

BG_NEAR = 2.0   # meters, bottom row
BG_FAR = 5.5    # meters, top row
SHADE_SCALE = 6.0


def synth_surfaces(seed, h, w, n_objects):
    """Background depth map plus rectangle surfaces, all seeded.

    Returns (bg_depth (H, W), rects) with rects as
    (row0, row1, col0, col1, depth, albedo-rgb) tuples.
    """
    if h < 8 or w < 8:
        raise DataError("synth scene dims too small: %dx%d" % (h, w))
    if n_objects < 1:
        raise DataError("synth scene needs at least one object")
    rng = np.random.default_rng(seed)
    rows = np.arange(h) / (h - 1)
    bg = BG_FAR - (BG_FAR - BG_NEAR) * rows
    bg_depth = np.repeat(bg[:, None], w, axis=1)
    rects = []
    for _ in range(n_objects):
        rh = int(rng.integers(h // 8, max(h // 3, h // 8 + 1)))
        rw = int(rng.integers(w // 8, max(w // 3, w // 8 + 1)))
        r0 = int(rng.integers(0, h - rh))
        c0 = int(rng.integers(0, w - rw))
        depth = float(rng.uniform(1.0, 4.5))
        albedo = rng.uniform(0.85, 1.0, size=3)
        rects.append((r0, r0 + rh, c0, c0 + rw, depth, albedo))
    return bg_depth, rects


def synth_scene(seed, h, w, n_objects):
    """Procedural RGB-D sample: background plane receding toward the top
    plus near-depth rectangles, nearest surface wins. Shading is depth
    correlated (green channel encodes depth exactly) so the color-to-depth
    mapping is learnable; mask is all-true."""
    bg_depth, rects = synth_surfaces(seed, h, w, n_objects)
    depth = bg_depth.copy()
    albedo = np.full((3, h, w), 0.9)
    for r0, r1, c0, c1, d, alb in rects:
        region = depth[r0:r1, c0:c1]
        closer = d < region
        region[closer] = d
        for ch in range(3):
            albedo[ch, r0:r1, c0:c1][closer] = alb[ch]
    shade = (BG_FAR + 0.5 - depth) / SHADE_SCALE
    rgb = np.empty((3, h, w))
    rgb[0] = shade * albedo[0]
    rgb[1] = shade          # pure depth cue
    rgb[2] = shade * albedo[2]
    rgb = np.clip(rgb, 0.0, 1.0)
    return RgbdSample(rgb=rgb, depth=depth[None].copy(),
                      mask=np.ones((h, w), dtype=bool))
