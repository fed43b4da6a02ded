import json
import os
import subprocess
import sys

import numpy as np
import pytest

from latentdepth import cli, data, metrics, network, training, verify
from latentdepth.cli import main
from latentdepth.network import (CKPT_MAGIC, CheckpointError, load_checkpoint,
                                 save_checkpoint)


def _gen(tmp_path, count=6, size="16x16", seed=1):
    out_dir = str(tmp_path / "synth")
    out = str(tmp_path / "gen.json")
    rc = main(["gen-synth", "--seed", str(seed), "--count", str(count),
               "--size", size, "--out-dir", out_dir, "--out", out])
    assert rc == 0
    return os.path.join(out_dir, "manifest.json"), out


class TestGenSynth:
    def test_writes_dataset_and_manifest(self, tmp_path):
        manifest, out = _gen(tmp_path, count=8)
        doc = json.load(open(out))
        assert doc["count"] == 8
        records = data.load_manifest(manifest)
        assert len(records) == 8
        # one scene id per image: each is an independent seeded scene
        assert [r.scene_id for r in records] == \
            ["scene%04d" % i for i in range(8)]
        splits = [r.split for r in records]
        assert splits.count("test") == 2  # default test fraction 0.25
        sample = data.load_rgbd_pair(records[0].rgb_path,
                                     records[0].depth_path, 16, 16)
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

    def test_out_inside_new_out_dir(self, tmp_path):
        out_dir = tmp_path / "new"
        rc = main(["gen-synth", "--count", "2", "--size", "16x16",
                   "--out-dir", str(out_dir), "--out",
                   str(out_dir / "g.json")])
        assert rc == 0
        assert json.load(open(str(out_dir / "g.json")))["count"] == 2

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
    manifest, _ = _gen(tmp, count=6)
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
               "--w-grad-feature", "0.005",
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
        back = data.load_rgbd_pair(rec.rgb_path, depth_out, 16, 16)
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

    @staticmethod
    def _overflowing_ckpt(color_ckpt, tmp_path):
        model = load_checkpoint(color_ckpt)
        # finite weights whose products overflow
        model.out_conv.weight.data[...] = np.finfo(model.dtype).max
        ckpt = str(tmp_path / "huge.ckpt")
        save_checkpoint(model, ckpt)
        return ckpt

    def test_predict_non_finite_writes_nothing(self, pipeline, tmp_path,
                                               capsys):
        _, manifest, _, color_ckpt = pipeline
        ckpt = self._overflowing_ckpt(color_ckpt, tmp_path)
        depth_out, out = tmp_path / "p.pgm", tmp_path / "p.json"
        rc = main(["predict", "--model", ckpt,
                   "--rgb", data.load_manifest(manifest)[0].rgb_path,
                   "--depth-out", str(depth_out), "--out", str(out)])
        assert rc == 2
        assert "predicted depth map is not finite" in capsys.readouterr().err
        assert not depth_out.exists() and not out.exists()

    def test_overflow_is_one_stderr_line(self, pipeline, tmp_path):
        # no numpy RuntimeWarning reaches stderr before the error line
        _, manifest, _, color_ckpt = pipeline
        ckpt = self._overflowing_ckpt(color_ckpt, tmp_path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = str(tmp_path / "o.json")
        for argv in (["predict", "--model", ckpt, "--rgb",
                      data.load_manifest(manifest)[0].rgb_path,
                      "--depth-out", str(tmp_path / "p.pgm"), "--out", out],
                     ["eval", "--model", ckpt, "--manifest", manifest,
                      "--out", out]):
            proc = subprocess.run(
                [sys.executable, "-m", "latentdepth.cli"] + argv, env=env,
                capture_output=True, text=True)
            assert proc.returncode == 2
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")

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

    @pytest.mark.parametrize("command", ["eval", "predict", "train-color"])
    def test_checkpoints_load_through_module_attribute(
            self, command, pipeline, tmp_path, monkeypatch):
        # a name bound when cli is imported would bypass the wrapper
        _, manifest, guided_ckpt, color_ckpt = pipeline
        calls, real = [], network.load_checkpoint
        monkeypatch.setattr(network, "load_checkpoint",
                            lambda path: calls.append(path) or real(path))
        out = ["--out", str(tmp_path / "o.json")]
        argv = {
            "eval": ["eval", "--model", color_ckpt, "--manifest", manifest],
            "predict": ["predict", "--model", color_ckpt,
                        "--rgb", data.load_manifest(manifest)[0].rgb_path,
                        "--depth-out", str(tmp_path / "d.pgm")],
            "train-color": ["train-color", "--manifest", manifest,
                            "--steps", "1", "--batch-size", "1",
                            "--base-width", "2", "--bottleneck-blocks", "1",
                            "--size", "16x16", "--guided", guided_ckpt,
                            "--ckpt-out", str(tmp_path / "c.ckpt")],
        }[command]
        assert main(argv + out) == 0
        assert calls == [guided_ckpt if command == "train-color"
                         else color_ckpt]


class TestErrorPaths:
    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["report", "--bogus",
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        manifest, _ = _gen(tmp_path, count=2)
        rc = main(["eval", "--model", str(bad), "--manifest", manifest,
                   "--out", str(tmp_path / "e.json")])
        assert rc == 2

    def test_bad_guided_checkpoint_fails_before_split_is_read(
            self, pipeline, tmp_path, monkeypatch):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        monkeypatch.setattr(data, "load_rgbd_pair", _no_work)
        rc = main(["train-color", "--manifest", pipeline[1], "--steps", "1",
                   "--size", "16x16", "--guided", str(bad),
                   "--ckpt-out", str(tmp_path / "c.ckpt"),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2

    def test_output_naming_a_record_leaves_it_as_it_was(self, tmp_path):
        manifest, _ = _gen(tmp_path, count=2)
        depth = data.load_manifest(manifest)[1].depth_path
        before = open(depth, "rb").read()
        rc = main(["train-guided", "--manifest", manifest, "--steps", "1",
                   "--batch-size", "1", "--base-width", "2",
                   "--bottleneck-blocks", "1", "--size", "16x16",
                   "--ckpt-out", depth, "--out", str(tmp_path / "g.json")])
        assert rc == 1
        assert open(depth, "rb").read() == before

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

        def faulty(seed=0):
            checks = real(seed=seed)
            for c in checks:
                if c["name"] == "conv2d/input":
                    c["max_rel_error"] += 1.0
                    c["passed"] = c["max_rel_error"] < verify.TOLERANCE
            return checks

        monkeypatch.setattr(verify, "run_gradient_checks", faulty)
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
    # version 2's config also held output_channels
    "v2": lambda h, p: (dict(h, version=2, config=dict(
        h["config"], output_channels=1)), p, None),
    "v3_output_channels": lambda h, p: (
        dict(h, config=dict(h["config"], output_channels=2)), p, None),
    "config_oversized": _oversized,
    "config_and_table_oversized": lambda h, p: _oversized(h, p, table=True),
    "array_table_not_list": lambda h, p: (dict(h, arrays=3), p, None),
    # a NaN as the first element of enc0.conv.weight
    "non_finite_payload": lambda h, p: (
        h, np.full(1, np.nan).astype("<f8").tobytes() + p[8:], None),
    # finite in the <f8 payload, past the range of the float32 model
    "float32_overflow_payload": lambda h, p: (
        h, np.full(1, 1e300).astype("<f8").tobytes() + p[8:], None),
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

# one test pair -> (rgb HxW, depth HxW, message fragment), evaluated by
# the 16x16 model
PAIR_CASES = {
    "dimension_mismatch": ((16, 16), (16, 8), "depth is 16x8"),
    "smaller_than_model": ((8, 16), (8, 16), "larger than source"),
}

# a netpbm header that promises more pixels than its few payload bytes ->
# (command that reads it, file bytes)
NETPBM_CASES = {
    "ppm_width_20_digits": ("predict",
                            b"P6\n%d 1\n255\n" % 10 ** 19 + bytes(30)),
    "pgm_100000x100000": ("eval", b"P5\n100000 100000\n65535\n" + bytes(30)),
}

# training flags -> (stage, extra argv, exit code, message fragment)
FLAG_CASES = {
    "lr_nan": ("guided", ["--lr", "nan"], 2, "learning rate"),
    "w_latent_nan": ("color", ["--w-latent", "nan"], 2, "finite"),
    # the feature losses read every tap: any --layers is a usage error
    "layers": ("color", ["--layers", "3,4"], 1, "--layers"),
    "size_zero": ("guided", ["--size", "0x16"], 1, "--size"),
    # past the 128 TiB address space: the allocation fails at once
    "base_width_huge": ("guided", ["--base-width", str(2 ** 40)], 2,
                        "Unable to allocate"),
    "batch_size_huge": ("guided", ["--batch-size", str(2 ** 50)], 2,
                        "Unable to allocate"),
}

# an output path that cannot be written -> (command, flag, None), or an
# output that names the file of another flag -> (command, flag, that
# flag); each is rejected before any work starts
OUTPUT_CASES = {
    "ckpt_out_missing_dir": ("train-guided", "--ckpt-out", None),
    "loss_csv_missing_dir": ("train-guided", "--loss-csv", None),
    "eval_out_missing_dir": ("eval", "--out", None),
    "eval_out_is_dir": ("eval", "--out", None),
    "predict_out_missing_dir": ("predict", "--out", None),
    "predict_depth_out_is_dir": ("predict", "--depth-out", None),
    "gradcheck_out_missing_dir": ("gradcheck", "--out", None),
    "gen_out_missing_dir": ("gen-synth", "--out", None),
    "report_out_missing_dir": ("report", "--out", None),
    "train_out_is_ckpt_out": ("train-guided", "--out", "--ckpt-out"),
    "train_loss_csv_is_ckpt_out": ("train-guided", "--loss-csv",
                                   "--ckpt-out"),
    "train_out_is_guided": ("train-color", "--out", "--guided"),
    "train_ckpt_out_is_manifest": ("train-guided", "--ckpt-out",
                                   "--manifest"),
    "train_ckpt_out_is_guided": ("train-color", "--ckpt-out", "--guided"),
    "eval_out_is_model": ("eval", "--out", "--model"),
    "eval_out_is_manifest": ("eval", "--out", "--manifest"),
    "predict_out_is_depth_out": ("predict", "--out", "--depth-out"),
    "predict_depth_out_is_model": ("predict", "--depth-out", "--model"),
    "predict_out_is_rgb": ("predict", "--out", "--rgb"),
}

# an output that names a file the command writes into --out-dir or a
# record of --manifest, in either split -> (command, flag, owner, file);
# the pipeline's records 0-3 are in the train split, 4 and 5 in test
MEMBER_CASES = {
    "gen_out_is_manifest": ("gen-synth", "--out", "--out-dir",
                            "manifest.json"),
    "gen_out_is_pair_file": ("gen-synth", "--out", "--out-dir",
                             "synth_0001.pgm"),
    "train_ckpt_out_is_train_depth": ("train-guided", "--ckpt-out",
                                      "--manifest", "synth_0001.pgm"),
    "train_loss_csv_is_test_rgb": ("train-guided", "--loss-csv",
                                   "--manifest", "synth_0005.ppm"),
    "train_out_is_train_rgb": ("train-color", "--out", "--manifest",
                               "synth_0000.ppm"),
    "eval_out_is_train_depth": ("eval", "--out", "--manifest",
                                "synth_0002.pgm"),
    "eval_out_is_test_rgb": ("eval", "--out", "--manifest",
                             "synth_0004.ppm"),
}

# gen-synth flags -> (extra argv, exit code, message fragment)
GEN_CASES = {
    "test_fraction_nan": (["--test-fraction", "nan"], 1, "--test-fraction"),
    "test_fraction_above_1": (["--test-fraction", "2"], 1, "--test-fraction"),
    "test_fraction_negative": (["--test-fraction", "-1"], 1,
                               "--test-fraction"),
}

# the commands that take --seed; a negative one is rejected at parsing
SEED_COMMANDS = ("gen-synth", "train-guided", "train-color", "gradcheck")

# report --ours values that are not a finite, non-negative RMSE
REPORT_CASES = {"ours_nan": "nan", "ours_inf": "inf", "ours_negative": "-0.5"}

CKPT_FRAGMENTS = {"v1": "version 1", "v2": "version 2",
                  "v3_output_channels": "bad checkpoint config",
                  "float32_overflow_payload": "not finite"}

TABLE = [("checkpoint", c, 2, CKPT_FRAGMENTS.get(c, "checkpoint"))
         for c in CKPT_CASES] + \
    [("manifest", c, 2, "manifest") for c in MANIFEST_CASES] + \
    [("pair", c, 2, frag) for c, (_, _, frag) in PAIR_CASES.items()] + \
    [("netpbm", c, 2, "payload") for c in NETPBM_CASES] + \
    [("flags", c, code, frag)
     for c, (_, _, code, frag) in FLAG_CASES.items()] + \
    [("guided", "color_checkpoint", 2, "guided network takes 3")] + \
    [("output", c, 2, flag) if other is None else
     ("output", c, 1, "%s and %s" % (other, flag))
     for c, (_, flag, other) in OUTPUT_CASES.items()] + \
    [("member", c, 1, "%s and %s" % (owner, flag))
     for c, (_, flag, owner, _) in MEMBER_CASES.items()] + \
    [("seed", c, 1, "--seed") for c in SEED_COMMANDS] + \
    [("gen", c, code, frag) for c, (_, code, frag) in GEN_CASES.items()] + \
    [("report", c, 1, "--ours") for c in REPORT_CASES]


def _bad_checkpoint(case, color_ckpt, tmp_path):
    path = str(tmp_path / "bad.ckpt")
    _write_ckpt(path, *CKPT_CASES[case](*_ckpt_parts(color_ckpt)))
    return path


def _argv(kind, case, pipeline, tmp_path):
    _, manifest, _, color_ckpt = pipeline
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
    if kind == "pair":
        rgb_hw, depth_hw, _ = PAIR_CASES[case]
        rgb, depth = str(tmp_path / "p.ppm"), str(tmp_path / "p.pgm")
        data.write_ppm(rgb, np.zeros(rgb_hw + (3,), np.uint8))
        data.write_pgm16(depth, np.ones(depth_hw, np.uint16))
        bad = str(tmp_path / "pair_manifest.json")
        data.save_manifest(bad, [data.ManifestRecord(rgb, depth, "s",
                                                     "test")])
        return ["eval", "--model", color_ckpt, "--manifest", bad] + out
    if kind == "netpbm":
        command, blob = NETPBM_CASES[case]
        bad = tmp_path / ("bad.ppm" if command == "predict" else "bad.pgm")
        bad.write_bytes(blob)
        if command == "predict":
            return ["predict", "--model", color_ckpt, "--rgb", str(bad),
                    "--depth-out", str(tmp_path / "d.pgm")] + out
        rgb = str(tmp_path / "p.ppm")
        data.write_ppm(rgb, np.zeros((16, 16, 3), np.uint8))
        manifest = str(tmp_path / "netpbm_manifest.json")
        data.save_manifest(manifest, [data.ManifestRecord(rgb, str(bad), "s",
                                                          "test")])
        return ["eval", "--model", color_ckpt, "--manifest", manifest] + out
    if kind == "report":
        return _command_argv("report", pipeline, tmp_path) + [
            "--ours=" + REPORT_CASES[case]]
    if kind == "gen":
        return _command_argv("gen-synth", pipeline, tmp_path) + \
            GEN_CASES[case][0]
    if kind == "output":
        command, flag, other = OUTPUT_CASES[case]
        argv = _command_argv(command, pipeline, tmp_path)
        if other is not None:  # spelled differently: paths are resolved
            head, tail = os.path.split(argv[argv.index(other) + 1])
            path = os.path.join(head, ".", tail)
        elif case.endswith("_is_dir"):
            path = str(tmp_path)
        else:
            path = str(tmp_path / "missing" / "o.json")
        return argv + [flag, path]  # the last of a repeated flag wins
    if kind == "member":
        command, flag, owner, name = MEMBER_CASES[case]
        argv = _command_argv(command, pipeline, tmp_path)
        owned = argv[argv.index(owner) + 1]
        if owner == "--manifest":
            owned = os.path.dirname(owned)
        return argv + [flag, os.path.join(owned, ".", name)]
    if kind == "seed":
        return _command_argv(case, pipeline, tmp_path) + ["--seed", "-1"]
    if kind == "guided":  # a color checkpoint as the frozen G
        return _command_argv("train-color", pipeline, tmp_path,
                             guided=color_ckpt)
    stage, extra, _, _ = FLAG_CASES[case]
    return _command_argv("train-" + stage, pipeline, tmp_path) + extra


def _command_argv(command, pipeline, tmp_path, guided=None):
    """A valid command line of each command, writing into tmp_path."""
    _, manifest, guided_ckpt, color_ckpt = pipeline
    out = ["--out", str(tmp_path / "o.json")]
    if command == "eval":
        return ["eval", "--model", color_ckpt, "--manifest", manifest] + out
    if command == "predict":
        return ["predict", "--model", color_ckpt,
                "--rgb", data.load_manifest(manifest)[0].rgb_path,
                "--depth-out", str(tmp_path / "d.pgm")] + out
    if command in ("gradcheck", "report"):
        return [command] + out
    if command == "gen-synth":
        return ["gen-synth", "--count", "2", "--size", "16x16",
                "--out-dir", str(tmp_path / "g")] + out
    argv = [command, "--manifest", manifest, "--steps", "1",
            "--batch-size", "1", "--base-width", "2",
            "--bottleneck-blocks", "1", "--size", "16x16",
            "--ckpt-out", str(tmp_path / "t.ckpt")] + out
    if command == "train-color":
        argv += ["--guided", guided or guided_ckpt]
    return argv


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output paths were checked")


# a numpy warning is an error: each case ends in its one-line message
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMalformedInputs:
    @pytest.mark.parametrize("kind,case,code,fragment", TABLE,
                             ids=["%s-%s" % row[:2] for row in TABLE])
    def test_exit_code(self, kind, case, code, fragment, pipeline, tmp_path,
                       capsys, monkeypatch):
        if kind in ("output", "member", "seed"):
            monkeypatch.setattr(training, "train_guided", _no_work)
            monkeypatch.setattr(training, "evaluate", _no_work)
            monkeypatch.setattr(network, "load_checkpoint", _no_work)
            monkeypatch.setattr(verify, "run_gradient_checks", _no_work)
            monkeypatch.setattr(data, "synth_scene", _no_work)
            monkeypatch.setattr(metrics, "relative_improvement", _no_work)
        # an uncaught exception would escape main() and fail the test
        assert main(_argv(kind, case, pipeline, tmp_path)) == code
        assert not list(tmp_path.glob("o.json*"))
        assert not (tmp_path / "d.pgm").exists()
        err = capsys.readouterr().err
        assert err.startswith("usage error: " if code == 1 else "error: ")
        assert fragment in err and err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(CKPT_CASES))
    def test_checkpoint_error_from_api(self, case, pipeline, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(_bad_checkpoint(case, pipeline[3], tmp_path))
