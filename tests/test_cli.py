import json
import os

import numpy as np
import pytest

from latentdepth import cli, data, verify
from latentdepth.cli import main
from latentdepth.network import CKPT_MAGIC, CheckpointError, load_checkpoint


def _gen(tmp_path, count=6, size="16x16", per_scene=3, seed=1):
    out_dir = str(tmp_path / "synth")
    out = str(tmp_path / "gen.json")
    rc = main(["gen-synth", "--seed", str(seed), "--count", str(count),
               "--size", size, "--per-scene", str(per_scene),
               "--out-dir", out_dir, "--out", out])
    assert rc == 0
    return os.path.join(out_dir, "manifest.json"), out


class TestGenSynth:
    def test_writes_dataset_and_manifest(self, tmp_path):
        manifest, out = _gen(tmp_path, count=8, per_scene=4)
        doc = json.load(open(out))
        assert doc["count"] == 8
        records = data.load_manifest(manifest)
        assert len(records) == 8
        assert {r.scene_id for r in records} == {"scene000", "scene001"}
        splits = [r.split for r in records]
        assert splits.count("test") == 2  # default test fraction 0.25
        sample = data.load_rgbd_pair(records[0].rgb_path,
                                     records[0].depth_path)
        assert sample.rgb.shape == (3, 16, 16)

    def test_idempotent_byte_identical(self, tmp_path):
        m1, _ = _gen(tmp_path / "a", seed=5)
        m2, _ = _gen(tmp_path / "b", seed=5)
        r1 = data.load_manifest(m1)
        r2 = data.load_manifest(m2)
        for a, b in zip(r1, r2):
            assert open(a.rgb_path, "rb").read() == \
                open(b.rgb_path, "rb").read()
            assert open(a.depth_path, "rb").read() == \
                open(b.depth_path, "rb").read()

    def test_bad_size_is_usage_error(self, tmp_path):
        rc = main(["gen-synth", "--count", "2", "--size", "17x16",
                   "--out-dir", str(tmp_path), "--out",
                   str(tmp_path / "o.json")])
        assert rc == 1

    def test_bad_count_is_usage_error(self, tmp_path):
        rc = main(["gen-synth", "--count", "0", "--size", "16x16",
                   "--out-dir", str(tmp_path), "--out",
                   str(tmp_path / "o.json")])
        assert rc == 1


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end CLI run shared by the pipeline tests."""
    tmp = tmp_path_factory.mktemp("cli")
    manifest, _ = _gen(tmp, count=6, per_scene=3)
    guided_ckpt = str(tmp / "guided.ckpt")
    rc = main(["train-guided", "--manifest", manifest, "--steps", "5",
               "--batch-size", "2", "--seed", "2", "--base-width", "2",
               "--bottleneck-blocks", "1", "--size", "16x16",
               "--ckpt-out", guided_ckpt,
               "--loss-csv", str(tmp / "g.csv"),
               "--out", str(tmp / "g.json")])
    assert rc == 0
    color_ckpt = str(tmp / "color.ckpt")
    rc = main(["train-color", "--manifest", manifest, "--steps", "5",
               "--batch-size", "2", "--seed", "2", "--base-width", "2",
               "--bottleneck-blocks", "1", "--size", "16x16",
               "--guided", guided_ckpt, "--w-latent", "0.02",
               "--w-grad-feature", "0.005", "--layers", "3,4",
               "--ckpt-out", color_ckpt,
               "--loss-csv", str(tmp / "c.csv"),
               "--out", str(tmp / "c.json")])
    assert rc == 0
    return tmp, manifest, guided_ckpt, color_ckpt


class TestTrainEvalPredict:
    def test_train_outputs(self, pipeline):
        tmp, _, guided_ckpt, color_ckpt = pipeline
        for name in ("g", "c"):
            doc = json.load(open(str(tmp / ("%s.json" % name))))
            assert doc["steps"] == 5
            assert np.isfinite(doc["final_loss"])
            lines = open(str(tmp / ("%s.csv" % name))).read().splitlines()
            assert len(lines) == 6
        assert os.path.exists(guided_ckpt) and os.path.exists(color_ckpt)

    def test_eval_exit_and_json(self, pipeline):
        tmp, manifest, _, color_ckpt = pipeline
        out = str(tmp / "eval.json")
        rc = main(["eval", "--model", color_ckpt, "--manifest", manifest,
                   "--split", "test", "--out", out])
        assert rc == 0
        doc = json.load(open(out))
        assert doc["n_images"] == 2  # 6 images, test fraction 0.25 -> 2
        assert doc["rmse"] >= 0 and np.isfinite(doc["rmse"])

    def test_predict_round_trip(self, pipeline):
        tmp, manifest, _, color_ckpt = pipeline
        rec = data.load_manifest(manifest)[0]
        depth_out = str(tmp / "pred.pgm")
        out = str(tmp / "pred.json")
        rc = main(["predict", "--model", color_ckpt, "--rgb", rec.rgb_path,
                   "--depth-out", depth_out, "--out", out])
        assert rc == 0
        # output must load back through the standard pair loader
        back = data.load_rgbd_pair(rec.rgb_path, depth_out)
        assert back.depth.shape == (1, 16, 16)
        doc = json.load(open(out))
        valid = back.depth[0][back.mask]
        if valid.size:
            # stored millimeters round-trip to meters within quantization
            assert valid.max() <= doc["max_m"] + 0.5e-3

    def test_predict_wrong_size_is_runtime_error(self, pipeline, tmp_path):
        tmp, _, _, color_ckpt = pipeline
        big = data.synth_scene(0, 32, 32, 2)
        rgb_path = str(tmp_path / "big.ppm")
        data.save_rgbd_pair(big, rgb_path, str(tmp_path / "big.pgm"))
        rc = main(["predict", "--model", color_ckpt, "--rgb", rgb_path,
                   "--depth-out", str(tmp_path / "p.pgm"),
                   "--out", str(tmp_path / "p.json")])
        assert rc == 2

    def test_guided_checkpoint_untouched_by_color_stage(self, pipeline):
        tmp, manifest, guided_ckpt, _ = pipeline
        before = open(guided_ckpt, "rb").read()
        rc = main(["train-color", "--manifest", manifest, "--steps", "2",
                   "--batch-size", "2", "--seed", "3", "--base-width", "2",
                   "--bottleneck-blocks", "1", "--size", "16x16",
                   "--guided", guided_ckpt, "--w-latent", "0.02",
                   "--w-grad-feature", "0",
                   "--ckpt-out", str(tmp / "c2.ckpt"),
                   "--out", str(tmp / "c2.json")])
        assert rc == 0
        assert open(guided_ckpt, "rb").read() == before


class TestErrorPaths:
    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["report", "--bogus",
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        manifest, _ = _gen(tmp_path, count=2, per_scene=1)
        rc = main(["eval", "--model", str(bad), "--manifest", manifest,
                   "--out", str(tmp_path / "e.json")])
        assert rc == 2

    def test_missing_manifest_is_runtime_error(self, tmp_path):
        from latentdepth.network import DepthModel, NetworkConfig, \
            save_checkpoint
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(DepthModel(NetworkConfig(
            input_channels=3, base_width=2, bottleneck_blocks=1,
            input_h=16, input_w=16), seed=0), ckpt)
        rc = main(["eval", "--model", ckpt,
                   "--manifest", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "e.json")])
        assert rc == 2


class TestGradcheck:
    def test_pass_exit_zero(self, tmp_path):
        out = str(tmp_path / "gc.json")
        rc = main(["gradcheck", "--seed", "0", "--out", out])
        assert rc == 0
        doc = json.load(open(out))
        assert doc["passed"] is True
        assert doc["tolerance"] == 1e-4
        names = {c["name"] for c in doc["checks"]}
        assert "conv2d/input" in names and "total_loss/prediction" in names

    def test_injected_fault_exits_three(self, tmp_path, monkeypatch,
                                        capsys):
        real = verify.run_gradient_checks
        monkeypatch.setattr(verify, "run_gradient_checks",
                            lambda seed=0: real(seed=seed,
                                                fault="conv2d/input"))
        out = str(tmp_path / "gc.json")
        rc = main(["gradcheck", "--out", out])
        assert rc == 3
        doc = json.load(open(out))
        assert doc["passed"] is False
        failing = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failing == ["conv2d/input"]
        assert "conv2d/input" in capsys.readouterr().out


class TestReport:
    def test_table2_rows(self, tmp_path):
        out = str(tmp_path / "r.json")
        rc = main(["report", "--out", out])
        assert rc == 0
        rows = {r["baseline"]: r["improvement_pct"]
                for r in json.load(open(out))["rows"]}
        assert rows["Eigen et al."] == pytest.approx(54.13, abs=0.01)
        assert rows["Sihaeng et al."] == pytest.approx(8.37, abs=0.01)
        assert rows["Zhang et al."] == pytest.approx(29.49, abs=0.01)

    def test_custom_ours(self, tmp_path):
        out = str(tmp_path / "r.json")
        rc = main(["report", "--ours", "0.454", "--out", out])
        assert rc == 0
        rows = {r["baseline"]: r["improvement_pct"]
                for r in json.load(open(out))["rows"]}
        assert rows["Sihaeng et al."] == 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_write_json_rejects_non_finite(self, tmp_path, value):
        out = tmp_path / "r.json"
        out.write_text("old\n")
        with pytest.raises(ValueError):
            cli._write_json(str(out), {"rmse": value})
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


class TestParseSize:
    def test_valid(self):
        assert cli._parse_size("32x48") == (32, 48)
        assert cli._parse_size("320X240") == (320, 240)

    def test_invalid(self):
        with pytest.raises(cli.UsageError):
            cli._parse_size("32")
        with pytest.raises(cli.UsageError):
            cli._parse_size("31x32")


# ---------------------------------------------------------------------------
# malformed inputs -> exit codes, each ending in a one-line message

def _ckpt_parts(path):
    blob = open(path, "rb").read()
    n = len(CKPT_MAGIC)
    hlen = int.from_bytes(blob[n:n + 8], "little")
    return json.loads(blob[n + 8:n + 8 + hlen]), blob[n + 8 + hlen:]


def _write_ckpt(path, header, payload, hlen=None):
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    hlen = len(blob) if hlen is None else hlen
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC + hlen.to_bytes(8, "little") + blob + payload)


def _v1_layout(header, payload):
    """The version-1 layout, which also stored running statistics after
    each normalization layer's beta."""
    arrays, chunks, pos = [], [], 0
    for meta in header["arrays"]:
        size = 8 * int(np.prod(meta["shape"]))
        arrays.append(meta)
        chunks.append(payload[pos:pos + size])
        pos += size
        if meta["name"].endswith(".beta"):
            stem, c = meta["name"][:-len("beta")], meta["shape"][0]
            arrays += [{"name": stem + "running_mean", "shape": [c]},
                       {"name": stem + "running_var", "shape": [c]}]
            chunks += [np.zeros(c).tobytes(), np.ones(c).tobytes()]
    return dict(header, version=1, arrays=arrays), b"".join(chunks)


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _oversized(header, payload, table=False):
    """A config of 2^40 input channels; with table=True the arrays table
    agrees with it."""
    arrays = [dict(a, shape=[a["shape"][0], 1 << 40] + a["shape"][2:])
              if table and a["name"] == "enc0.conv.weight" else a
              for a in header["arrays"]]
    return dict(header, config=dict(header["config"], input_channels=1 << 40),
                arrays=arrays), payload, None


# (header, payload) -> (header, payload, header length or None)
CKPT_CASES = {
    "header_not_object": lambda h, p: (sorted(h), p, None),
    "no_version": lambda h, p: (_without(h, "version"), p, None),
    "no_config": lambda h, p: (_without(h, "config"), p, None),
    "no_arrays": lambda h, p: (_without(h, "arrays"), p, None),
    "unknown_config_key": lambda h, p: (
        dict(h, config=dict(h["config"], depth=3)), p, None),
    "float_config_value": lambda h, p: (
        dict(h, config=dict(h["config"], base_width=2.5)), p, None),
    "header_length_past_end": lambda h, p: (h, p, 1 << 40),
    "trailing_bytes": lambda h, p: (h, p + bytes(8), None),
    "v1": lambda h, p: _v1_layout(h, p) + (None,),
    "config_oversized": _oversized,
    "config_and_table_oversized": lambda h, p: _oversized(h, p, table=True),
    "array_table_not_list": lambda h, p: (dict(h, arrays=3), p, None),
}

# manifest document -> malformed document
MANIFEST_CASES = {
    "not_an_object": lambda doc: doc["records"],
    "no_records": lambda doc: _without(doc, "records"),
    "record_not_object": lambda doc: {"records": ["synth_0000.ppm"]},
    "no_rgb": lambda doc: {"records": [_without(doc["records"][0], "rgb")]},
    "no_depth": lambda doc: {
        "records": [_without(doc["records"][0], "depth")]},
    "no_scene": lambda doc: {
        "records": [_without(doc["records"][0], "scene")]},
    "no_split": lambda doc: {
        "records": [_without(doc["records"][0], "split")]},
    "number_path": lambda doc: {"records": [dict(doc["records"][0], rgb=1)]},
}

# training flags -> (stage, extra argv, exit code, message fragment)
FLAG_CASES = {
    "lr_nan": ("guided", ["--lr", "nan"], 2, "learning rate"),
    "w_latent_nan": ("color", ["--w-latent", "nan"], 2, "finite"),
    "layers_not_int": ("color", ["--layers", "a"], 1, "--layers"),
    "layers_past_last_tap": ("color", ["--layers", "9"], 2, "tap indices"),
    "layers_negative": ("color", ["--layers", "-1"], 2, "tap indices"),
    "layers_duplicate": ("color", ["--layers", "1,1"], 2, "tap indices"),
    "size_zero": ("guided", ["--size", "0x16"], 1, "--size"),
}

# gen-synth flags -> (extra argv, exit code, message fragment)
GEN_CASES = {
    "test_fraction_nan": (["--test-fraction", "nan"], 1, "--test-fraction"),
    "test_fraction_above_1": (["--test-fraction", "2"], 1, "--test-fraction"),
    "test_fraction_negative": (["--test-fraction", "-1"], 1,
                               "--test-fraction"),
}

# report --ours values that are not a finite, non-negative RMSE
REPORT_CASES = {"ours_nan": "nan", "ours_inf": "inf", "ours_negative": "-0.5"}

TABLE = [("checkpoint", c, 2, "version 1" if c == "v1" else "checkpoint")
         for c in CKPT_CASES] + \
    [("manifest", c, 2, "manifest") for c in MANIFEST_CASES] + \
    [("flags", c, code, frag)
     for c, (_, _, code, frag) in FLAG_CASES.items()] + \
    [("gen", c, code, frag) for c, (_, code, frag) in GEN_CASES.items()] + \
    [("report", c, 1, "--ours") for c in REPORT_CASES]


def _bad_checkpoint(case, color_ckpt, tmp_path):
    path = str(tmp_path / "bad.ckpt")
    _write_ckpt(path, *CKPT_CASES[case](*_ckpt_parts(color_ckpt)))
    return path


def _argv(kind, case, pipeline, tmp_path):
    _, manifest, guided_ckpt, color_ckpt = pipeline
    out = ["--out", str(tmp_path / "o.json")]
    if kind == "checkpoint":
        return ["eval", "--model", _bad_checkpoint(case, color_ckpt, tmp_path),
                "--manifest", manifest] + out
    if kind == "manifest":
        doc = MANIFEST_CASES[case](json.load(open(manifest)))
        bad = str(tmp_path / "bad_manifest.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        return ["eval", "--model", color_ckpt, "--manifest", bad] + out
    if kind == "report":
        return ["report", "--ours=" + REPORT_CASES[case]] + out
    if kind == "gen":
        return ["gen-synth", "--count", "2", "--size", "16x16",
                "--out-dir", str(tmp_path / "g")] + GEN_CASES[case][0] + out
    stage, extra, _, _ = FLAG_CASES[case]
    argv = ["train-" + stage, "--manifest", manifest, "--steps", "1",
            "--batch-size", "1", "--base-width", "2",
            "--bottleneck-blocks", "1", "--size", "16x16",
            "--ckpt-out", str(tmp_path / "t.ckpt")] + extra + out
    return argv + (["--guided", guided_ckpt] if stage == "color" else [])


class TestMalformedInputs:
    @pytest.mark.parametrize("kind,case,code,fragment", TABLE,
                             ids=["%s-%s" % row[:2] for row in TABLE])
    def test_exit_code(self, kind, case, code, fragment, pipeline, tmp_path,
                       capsys):
        # an uncaught exception would escape main() and fail the test
        assert main(_argv(kind, case, pipeline, tmp_path)) == code
        assert not list(tmp_path.glob("o.json*"))
        err = capsys.readouterr().err
        assert err.startswith("usage error: " if code == 1 else "error: ")
        assert fragment in err and err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(CKPT_CASES))
    def test_checkpoint_error_from_api(self, case, pipeline, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(_bad_checkpoint(case, pipeline[3], tmp_path))
