"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime/data error,
3 verification failure. Every subcommand writes a JSON result to --out
and a human-readable summary to stdout.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import autodiff, data, losses, metrics, network, training, verify


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_size(text):
    try:
        h, w = (int(t) for t in text.lower().split("x"))
    except ValueError:
        raise UsageError("--size must be HxW, got %r" % text)
    try:
        network.check_input_size(h, w)
    except ValueError as exc:
        raise UsageError("--size: %s" % exc)
    return h, w


def _write_json(path, payload):
    # serialized before any file is touched: a non-finite float raises
    # ValueError and leaves path as it was, with no .tmp file
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text + "\n")
    os.replace(tmp, path)


def _build_parser():
    top = _Parser(prog="latentdepth",
                  description="Monocular depth estimation with a guided "
                              "latent-feature loss")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic RGB-D dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", required=True, help="HxW, divisible by 16")
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--out", required=True, help="JSON result path")
    p.set_defaults(func=_cmd_gen_synth)

    for stage in ("guided", "color"):
        p = sub.add_parser("train-" + stage)
        p.set_defaults(func=_cmd_train, stage=stage)
        p.add_argument("--manifest", required=True)
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("--batch-size", type=int, default=32)
        p.add_argument("--lr", type=float, default=0.01)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--base-width", type=int, default=4)
        p.add_argument("--bottleneck-blocks", type=int, default=6)
        p.add_argument("--size", required=True, help="HxW after preprocessing")
        p.add_argument("--ckpt-out", required=True)
        p.add_argument("--loss-csv", default=None)
        p.add_argument("--out", required=True)
        if stage == "color":
            p.add_argument("--guided", required=True,
                           help="frozen guided-network checkpoint")
            p.add_argument("--w-data", type=float, default=1.0)
            p.add_argument("--w-latent", type=float, default=1.0)
            p.add_argument("--w-grad-image", type=float, default=1.0)
            p.add_argument("--w-grad-feature", type=float, default=1.0)

    p = sub.add_parser("eval")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=["test", "train",
                                                       "all"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict")
    p.add_argument("--model", required=True)
    p.add_argument("--rgb", required=True)
    p.add_argument("--depth-out", required=True,
                   help="output 16-bit PGM depth map (millimeters)")
    p.add_argument("--out", required=True, help="JSON result path")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("gradcheck")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("report", help="Table 2 relative improvements")
    p.add_argument("--ours", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return top


# ---------------------------------------------------------------------------
# subcommands; each calls the library through module attributes, so a
# function wrapped after import sees the CLI's calls

def _cmd_gen_synth(args):
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    if not 0.0 <= args.test_fraction <= 1.0:
        raise UsageError("--test-fraction must be in [0, 1], got %r"
                         % args.test_fraction)
    h, w = _parse_size(args.size)
    os.makedirs(args.out_dir, exist_ok=True)
    _check_out_paths(args, "--out")  # after makedirs: --out may lie in it
    records = []
    n_test = int(round(args.count * args.test_fraction))
    for i in range(args.count):
        sample = data.synth_scene(args.seed * 100003 + i, h, w, 2)
        rgb_path = os.path.join(args.out_dir, "synth_%04d.ppm" % i)
        depth_path = os.path.join(args.out_dir, "synth_%04d.pgm" % i)
        data.save_rgbd_pair(sample, rgb_path, depth_path)
        # each image is an independent seeded scene
        records.append(data.ManifestRecord(
            rgb_path, depth_path, scene_id="scene%04d" % i,
            split="test" if i >= args.count - n_test else "train"))
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    data.save_manifest(manifest_path, records, relative_to=args.out_dir)
    result = {"count": args.count, "manifest": manifest_path,
              "size": [h, w], "seed": args.seed}
    _write_json(args.out, result)
    print("wrote %d synthetic pairs to %s" % (args.count, args.out_dir))
    return 0


def _load_samples(manifest_path, h, w, split):
    """The split's samples, loaded as drawn; the manifest is read now."""
    return (data.load_rgbd_pair(rec.rgb_path, rec.depth_path, h, w)
            for rec in data.load_manifest(manifest_path)
            if split in ("all", rec.split))


def _check_out_paths(args, *flags):
    """Rejects, before any work, a directory or a path in a missing one,
    and an output that names the file of an input or of another output."""
    named = {os.path.realpath(path): flag
             for flag in ("--model", "--guided", "--rgb", "--manifest")
             if (path := getattr(args, flag[2:], None))}
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        if not path:
            continue
        if os.path.isdir(path) or \
                not os.path.isdir(os.path.dirname(path) or "."):
            raise OSError("%s: cannot write a file at %s" % (flag, path))
        other = named.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise UsageError("%s and %s name the same file %s"
                             % (other, flag, path))


def _cmd_train(args):
    _check_out_paths(args, "--ckpt-out", "--loss-csv", "--out")
    stage = args.stage
    h, w = _parse_size(args.size)
    in_ch = 1 if stage == "guided" else 3
    net = network.NetworkConfig(
        input_channels=in_ch, base_width=args.base_width,
        bottleneck_blocks=args.bottleneck_blocks, input_h=h, input_w=w)
    objective = {}
    if stage == "color":
        objective["weights"] = losses.LossWeights(
            data=args.w_data, latent=args.w_latent,
            grad_image=args.w_grad_image, grad_feature=args.w_grad_feature)
    config = training.TrainConfig(
        stage=stage, net=net, steps=args.steps, batch_size=args.batch_size,
        learning_rate=args.lr, seed=args.seed,
        checkpoint_path=args.ckpt_out, loss_csv_path=args.loss_csv,
        **objective)
    if stage == "color":  # a bad checkpoint fails before the split is read
        guided = network.load_checkpoint(args.guided)
    samples = list(_load_samples(args.manifest, h, w, split="train"))
    if stage == "guided":
        model, history = training.train_guided(config, samples)
    else:
        model, history = training.train_color(config, samples, guided)
    final = history[-1].total if history else None
    result = {"stage": stage, "steps": args.steps, "seed": args.seed,
              "batch_size": args.batch_size, "learning_rate": args.lr,
              "momentum": training.MOMENTUM, "size": [h, w],
              "base_width": args.base_width,
              "final_loss": final, "checkpoint": args.ckpt_out,
              "loss_csv": args.loss_csv}
    _write_json(args.out, result)
    print("trained %s network for %d steps; final loss %s"
          % (stage, args.steps, final))
    return 0


def _cmd_eval(args):
    _check_out_paths(args, "--out")
    model = network.load_checkpoint(args.model)
    result = training.evaluate(model, _load_samples(
        args.manifest, model.config.input_h, model.config.input_w, args.split))
    _write_json(args.out, dataclasses.asdict(result))
    print(result.summary())
    return 0


def _cmd_predict(args):
    _check_out_paths(args, "--depth-out", "--out")
    model = network.load_checkpoint(args.model)
    with autodiff.no_grad():
        pred, _ = model.forward(autodiff.Tensor(data.load_rgb(args.rgb)))
    # a NaN or infinity reaches the min or the max; checked before any
    # output file is written
    lo, hi = float(pred.data.min()), float(pred.data.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise RuntimeError("predicted depth map is not finite")
    data.write_pgm16(args.depth_out, data.depth_to_mm(pred.data[0]))
    _write_json(args.out, {"depth_map": args.depth_out,
                           "min_m": lo, "max_m": hi})
    print("wrote depth map %s" % args.depth_out)
    return 0


def _cmd_gradcheck(args):
    _check_out_paths(args, "--out")
    checks = verify.run_gradient_checks(seed=args.seed)
    ok = all(c["passed"] for c in checks)
    _write_json(args.out, {"tolerance": verify.TOLERANCE, "seed": args.seed,
                           "passed": ok, "checks": checks})
    for c in checks:
        print("%-28s %-4s max rel err %.3e"
              % (c["name"], "ok" if c["passed"] else "FAIL",
                 c["max_rel_error"]))
    if not ok:
        failing = [c for c in checks if not c["passed"]]
        print("gradcheck FAILED: " + ", ".join(
            "%s (%.3e)" % (c["name"], c["max_rel_error"]) for c in failing))
        return 3
    print("gradcheck passed: %d checks" % len(checks))
    return 0


def _cmd_report(args):
    _check_out_paths(args, "--out")
    ours = args.ours if args.ours is not None else metrics.TABLE2_OURS
    if not (math.isfinite(ours) and ours >= 0):
        raise UsageError("--ours must be a finite, non-negative RMSE, got %r"
                         % ours)
    rows = []
    for name, baseline in metrics.TABLE2_BASELINES.items():
        imp = metrics.relative_improvement(baseline, ours)
        rows.append({"baseline": name, "baseline_rmse": baseline,
                     "ours_rmse": ours, "improvement_pct": imp})
        print("%-16s RMSE %.3f -> ours %.3f: %.2f%% improvement"
              % (name, baseline, ours, imp))
    _write_json(args.out, {"rows": rows})
    return 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy's generators reject it
            raise UsageError("--seed must be >= 0, got %d" % args.seed)
        # an overflow surfaces as one error line from the finiteness
        # checks of predict, evaluate and training, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
