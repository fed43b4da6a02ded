"""Span recorder for the traced benchmark run.

The recorder wraps module functions, class methods and the backward
closures of the tensors each autodiff op returns, at run time; the
program's source is not edited. `install` patches, `uninstall` restores
the originals, so an untraced round runs the program's own functions.
Spans are kept in memory and written out once, at the end of the run.

A span is `[name_id, start_ns, end_ns, parent_index, request_id]`. The
request id is the training step or CLI call the span belongs to.
"""

import json
import os
import time

_now = time.perf_counter_ns

# ops grouped under one per-layer name
ELEMENTWISE = ("add", "sub", "scale", "mul_const")
AUTODIFF_OPS = ("conv2d", "batch_norm2d", "relu", "bilinear_upsample_x2",
                "spatial_gradients", "reduce") + ELEMENTWISE


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.counters = {}
        self.request = -1
        self._requests = 0
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, _now(), 0, parent, self.request])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = _now()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order")

    def unwind(self):
        """End every open span, after an operation raised mid-span."""
        while self._stack:
            self.end(self._stack[-1])

    def new_request(self):
        self.request = self._requests
        self._requests += 1

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name, fn):
        """Wrap fn so that each call records one span."""
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, ld):
        """Wrap the public functions of each layer of the `ld` package."""
        ad = ld.autodiff
        for op in AUTODIFF_OPS:
            self.patch(ad, op, self._op(ad, op, ad.__dict__[op]))
        self.patch(ad, "backward",
                   self.span("autodiff.backward", ad.backward))

        net = ld.network
        for meth in ("encoder_forward", "bottleneck_forward",
                     "decoder_forward"):
            self.patch(net.DepthModel, meth,
                       self.span("network." + meth,
                                 net.DepthModel.__dict__[meth]))
        for fn in ("extract_features", "load_checkpoint", "save_checkpoint"):
            self.patch(net, fn, self.span("network." + fn, net.__dict__[fn]))
        # training binds save_checkpoint by name at import
        self.patch(ld.training, "save_checkpoint", net.save_checkpoint)

        for fn in ("total_loss", "data_loss"):
            self.patch(ld.losses, fn,
                       self.span("losses." + fn, ld.losses.__dict__[fn]))
        for fn in ("train_guided", "train_color", "evaluate"):
            self.patch(ld.training, fn,
                       self.span("training." + fn, ld.training.__dict__[fn]))
        for fn in ("load_manifest", "load_rgbd_pair", "read_ppm",
                   "read_pgm16", "preprocess", "synth_scene", "write_pgm16"):
            self.patch(ld.data, fn, self._data(fn, ld.data.__dict__[fn]))
        self.patch(ld.metrics, "rmse",
                   self.span("metrics.rmse", ld.metrics.rmse))
        cli_main = self.span("cli.main", ld.cli.main)

        def main(*args, **kwargs):
            self.new_request()
            return cli_main(*args, **kwargs)
        self.patch(ld.cli, "main", main)

    def _data(self, fn_name, fn):
        traced = self.span("data." + fn_name, fn)
        if fn_name != "load_rgbd_pair":
            return traced

        def load(rgb_path, depth_path, *args, **kwargs):
            self.count("data.load_rgbd_pair.bytes_read",
                       os.path.getsize(rgb_path) + os.path.getsize(depth_path))
            return traced(rgb_path, depth_path, *args, **kwargs)
        return load

    def _op(self, ad, op, fn):
        name = "autodiff." + op
        bwd_name = name + ".bwd"
        conv = op == "conv2d"

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            bwd_flop = self._conv_counts(ad, *args, **kwargs) if conv else 0
            for t in out if isinstance(out, tuple) else (out,):
                if t._backward_fn is not None:
                    t._backward_fn = self._backward(bwd_name, t._backward_fn,
                                                    bwd_flop)
            return out
        return traced

    def _backward(self, name, fn, flop):
        def traced(g):
            idx = self.begin(name)
            try:
                fn(g)
            finally:
                self.end(idx)
            if flop:
                self.count("conv2d.flop", flop)
        return traced

    def _conv_counts(self, ad, x, weight, bias, stride=1):
        """Work of one conv2d call, computed from shapes; returns the flop
        count its backward pass will add."""
        cin, h, w = x.shape
        cout, _, kh, kw = weight.shape
        oh, ow = -(-h // stride), -(-w // stride)
        macs = cout * cin * kh * kw * oh * ow
        self.count("conv2d.macs", macs)
        self.count("conv2d.flop", 2 * macs)
        self.count("conv2d.operand_bytes",
                   8 * (x.data.size + weight.data.size + bias.data.size))
        self.count("conv2d.result_bytes", 8 * cout * oh * ow)
        # the size rule autodiff.conv2d uses to pick its code path
        limit = getattr(ad, "_IM2COL_LIMIT", None)
        if limit is not None and cin * kh * kw * oh * ow > limit:
            self.count("conv2d.offset_calls")
        else:
            self.count("conv2d.im2col_calls")
        return 2 * macs * (int(weight.requires_grad) + int(x.requires_grad))

    # -- output ------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            calls, incl, self_ns = out.get(self.names[nid], (0, 0, 0))
            out[self.names[nid]] = (calls + 1, incl + end - start,
                                    self_ns + end - start - child_ns[i])
        return out

    def write(self, path, extra):
        doc = dict(extra, names=self.names, counters=self.counters,
                   span_fields=["name_id", "start_ns", "end_ns", "parent",
                                "request"],
                   spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class StepClock:
    """Step boundaries from `SgdOptimizer.zero_grad` (start) and `.step`
    (end): the only hooks of an untraced run. Before each step starts
    the machine-speed probe runs once. While `tracer` is set the step,
    the probe and the optimizer update are also recorded as spans."""

    def __init__(self, training, probe):
        self.steps = []          # (start_ns, end_ns) per finished step
        self.tracer = None
        self.probe = probe
        self._start = 0
        self._span = -1
        cls = training.SgdOptimizer
        zero_grad, step = cls.zero_grad, cls.step
        self._owner = (cls, zero_grad, step)

        def timed_zero_grad(opt):
            self.sample_speed()
            tr = self.tracer
            if tr is not None:
                tr.new_request()
            self._start = _now()
            if tr is not None:
                self._span = tr.begin("training.step")
            zero_grad(opt)

        def timed_step(opt):
            tr = self.tracer
            if tr is None:
                step(opt)
            else:
                idx = tr.begin("training.optimizer")
                step(opt)
                tr.end(idx)
                tr.end(self._span)
            self.steps.append((self._start, _now()))

        cls.zero_grad, cls.step = timed_zero_grad, timed_step

    def sample_speed(self):
        """Run the probe once, as a span of its own when tracing."""
        tr = self.tracer
        if tr is None:
            self.probe.sample()
        else:
            idx = tr.begin("bench.probe")
            self.probe.sample()
            tr.end(idx)

    def take(self):
        """(start_ns, end_ns) of the steps finished since the last call."""
        out, self.steps = self.steps, []
        return out

    def close(self):
        cls, zero_grad, step = self._owner
        cls.zero_grad, cls.step = zero_grad, step


def self_time_sum(doc):
    """Sum of span self times in a written trace; equals the summed
    duration of the root spans when nesting is consistent."""
    spans = doc["spans"]
    total = sum(end - start for _, start, end, _, _ in spans)
    nested = sum(end - start for _, start, end, parent, _ in spans
                 if parent >= 0)
    return total - nested


def per_layer(tracer, items, steps, color_samples, op_span):
    """Per-layer metrics from a traced phase.

    items: samples trained or images processed in the traced rounds;
    steps: training steps among them; color_samples: samples drawn by
    the color stage; op_span: the span name of one user operation
    ("training.step" or "cli.main"), the base of the `share` metrics.
    """
    tot = tracer.totals()
    c = tracer.counters
    per = 1.0 / max(items, 1)

    def calls(name):
        return tot.get(name, (0, 0, 0))[0]

    def incl_ms(*names):
        return sum(tot.get(n, (0, 0, 0))[1] for n in names) / 1e6

    def self_ms(*names):
        return sum(tot.get(n, (0, 0, 0))[2] for n in names) / 1e6

    op_ms = incl_ms(op_span)
    m = {}

    def op_metrics(layer, fns):
        names = ["autodiff." + f for f in fns]
        m["autodiff.%s.calls" % layer] = sum(calls(n) for n in names) * per
        m["autodiff.%s.fwd_ms" % layer] = incl_ms(*names) * per
        m["autodiff.%s.bwd_ms" % layer] = \
            incl_ms(*(n + ".bwd" for n in names)) * per

    for op in AUTODIFF_OPS:
        if op not in ELEMENTWISE:
            op_metrics(op, (op,))
    op_metrics("elementwise", ELEMENTWISE)

    conv_ms = incl_ms("autodiff.conv2d", "autodiff.conv2d.bwd")
    gflop = c.get("conv2d.flop", 0) / 1e9
    m["autodiff.conv2d.gflop"] = gflop * per
    m["autodiff.conv2d.gflop_per_s"] = gflop / (conv_ms / 1e3) \
        if conv_ms else 0.0
    m["autodiff.conv2d.mmac"] = c.get("conv2d.macs", 0) / 1e6 * per
    m["autodiff.conv2d.operand_mb"] = \
        c.get("conv2d.operand_bytes", 0) / 1e6 * per
    m["autodiff.conv2d.result_mb"] = \
        c.get("conv2d.result_bytes", 0) / 1e6 * per
    m["autodiff.conv2d.offset_calls"] = c.get("conv2d.offset_calls", 0) * per
    m["autodiff.conv2d.im2col_calls"] = c.get("conv2d.im2col_calls", 0) * per
    m["autodiff.conv2d.share"] = conv_ms / op_ms if op_ms else 0.0
    bn_ms = incl_ms("autodiff.batch_norm2d", "autodiff.batch_norm2d.bwd")
    m["autodiff.batch_norm2d.share"] = bn_ms / op_ms if op_ms else 0.0

    bwd_names = [n for n in tot if n.endswith(".bwd")]
    nodes = sum(calls(n) for n in bwd_names)
    backward_ms = incl_ms("autodiff.backward")
    m["autodiff.backward.ms"] = backward_ms * per
    m["autodiff.backward.nodes"] = nodes * per

    for fn in ("encoder_forward", "bottleneck_forward", "decoder_forward",
               "extract_features"):
        m["network.%s.calls" % fn] = calls("network." + fn) * per
        m["network.%s.ms" % fn] = incl_ms("network." + fn) * per
    for fn in ("load_checkpoint", "save_checkpoint"):
        m["network.%s.ms" % fn] = incl_ms("network." + fn) * per

    m["losses.total_loss.self_ms"] = self_ms("losses.total_loss") * per
    m["losses.data_loss.ms"] = incl_ms("losses.data_loss") * per

    optimizer_ms = incl_ms("training.optimizer")
    step_ms = incl_ms("training.step")
    m["training.step.forward_ms"] = \
        (step_ms - backward_ms - optimizer_ms) * per
    m["training.step.backward_ms"] = backward_ms * per
    m["training.step.optimizer_ms"] = optimizer_ms * per
    m["training.step.graph_nodes"] = nodes / steps if steps else 0.0
    fwd_calls = sum(calls("autodiff." + op) for op in AUTODIFF_OPS)
    m["training.step.op_calls"] = fwd_calls / steps if steps else 0.0
    misses = calls("network.extract_features") - color_samples
    stages = calls("training.train_color")
    m["training.target_cache.misses"] = misses / stages if stages else 0.0
    m["training.target_cache.hit_ratio"] = \
        1.0 - misses / color_samples if color_samples else 0.0

    data_names = [n for n in tot if n.startswith("data.")]
    for fn in ("load_rgbd_pair", "preprocess", "synth_scene", "write_pgm16"):
        m["data.%s.ms" % fn] = incl_ms("data." + fn) * per
    m["data.load_rgbd_pair.bytes_read"] = \
        c.get("data.load_rgbd_pair.bytes_read", 0) * per
    m["data.share"] = self_ms(*data_names) / op_ms if op_ms else 0.0
    m["metrics.rmse.ms"] = incl_ms("metrics.rmse") * per
    m["cli.main.self_ms"] = self_ms("cli.main") * per
    return m
