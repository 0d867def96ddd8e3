"""Span tracing for the benchmark's traced run, recorded from outside
the library.

``install`` replaces a set of library functions with timing wrappers,
each at the module attribute its callers look up (``nnops`` reaches the
conv kernels as ``ck.conv2d_forward``, ``inference`` imported
``forward_parts`` by name, and so on), and puts the originals back on
exit. Nothing under ``src/`` is edited.

A span is (id, layer, start, end, parent id, thread, phase, request,
attrs). Parents are tracked per thread, so spans opened by the tile
thread pool are top-level spans of their worker thread. Spans stay in
memory until the run writes them out.
"""

import contextlib
import functools
import itertools
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None    # "setup" or "loop"
        self.request = None  # step or scene number, see new_request
        self._requests = itertools.count()
        self.conv_units = {}  # id(weight ndarray) -> unit name
        self.select_route = None  # convkernels.select_route, set by install
        self._ids = itertools.count()
        self._local = threading.local()

    def new_request(self):
        """Start the next step or scene; later spans carry its number."""
        self.request = next(self._requests)

    def register_units(self, named_weights):
        """Attribute conv calls to units by weight array: ``named_weights``
        holds (unit name, weight ndarray) pairs of the nets in use."""
        self.conv_units = {id(arr): name for name, arr in named_weights}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer, attrs=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, layer, t0, t1, parent,
                               threading.get_ident(), self.phase,
                               self.request, attrs))

    def wrap(self, layer, fn, attrs_fn=None):
        """``fn`` inside a span; ``attrs_fn(tracer, args, kwargs, result)``
        gives the span's attrs."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {} if attrs_fn else None
            with tracer.span(layer, attrs):
                result = fn(*args, **kwargs)
                if attrs_fn:
                    attrs.update(attrs_fn(tracer, args, kwargs, result))
            return result

        return wrapper


# ---------------------------------------------------------------------------
# Operation accounting, computed from shapes and array sizes


def _conv_fwd_attrs(tracer, args, kwargs, out):
    x, w, b = args[0], args[1], args[2]
    route = kwargs.get("route") or (args[5] if len(args) > 5 else None)
    oc, c, kh, kw = w.shape
    n, _, oh, ow = out.shape
    flops = 2 * n * oc * oh * ow * c * kh * kw
    nbytes = x.nbytes + w.nbytes + out.nbytes + (0 if b is None else b.nbytes)
    return {"unit": tracer.conv_units.get(id(w), "other"),
            "route": route or tracer.select_route(kh, kw),
            "flops": flops, "bytes": nbytes}


def _conv_bwd_attrs(tracer, args, kwargs, result):
    x, w, g = args[0], args[1], args[2]
    gx, gw, gb = result
    oc, c, kh, kw = w.shape
    n, _, oh, ow = g.shape
    fwd = 2 * n * oc * oh * ow * c * kh * kw
    nbytes = x.nbytes + w.nbytes + g.nbytes + gw.nbytes + gb.nbytes
    if gx is not None:
        nbytes += gx.nbytes
    return {"unit": tracer.conv_units.get(id(w), "other"),
            "flops": fwd * (2 if gx is not None else 1), "bytes": nbytes}


def _write_attrs(tracer, args, kwargs, result):
    return {"bytes": np.asarray(args[1]).nbytes}


def _read_attrs(tracer, args, kwargs, result):
    return {"bytes": result.nbytes}


def _plan_attrs(tracer, args, kwargs, windows):
    h, w = args[0], args[1]
    return {"windows": len(windows), "scene_px": h * w,
            "window_px": sum(win.height * win.width for win in windows)}


@contextlib.contextmanager
def install(tracer, ss):
    """Wrap the layer boundaries of the imported ``segstack`` package
    ``ss`` for the duration of the block."""
    ck = ss.convkernels
    tracer.select_route = ck.select_route
    # (module or class, attribute, layer, attrs_fn)
    points = [
        (ck, "conv2d_forward", "convkernels.conv_fwd", _conv_fwd_attrs),
        (ck, "conv2d_backward", "convkernels.conv_bwd", _conv_bwd_attrs),
        (ck, "maxpool2_forward", "convkernels.pool", None),
        (ck, "maxpool2_backward", "convkernels.pool", None),
        (ck, "unpool2_forward", "convkernels.unpool", None),
        (ck, "unpool2_backward", "convkernels.unpool", None),
        (ss.segnet, "batchnorm", "nnops.batchnorm.fwd", None),
        (ss.segnet, "branch_outputs", "multikernel.head.fwd", None),
        (ss.inference, "softmax_channels", "nnops.softmax", None),
        (ss.training, "softmax_channels", "nnops.softmax", None),
        (ss.training, "cross_entropy_loss", "nnops.cross_entropy", None),
        (ss.multikernel, "cross_entropy_loss", "nnops.cross_entropy", None),
        (ss.training, "backward", "tensor.backward", None),
        (ss.training, "forward_parts", "segnet.forward", None),
        (ss.inference, "forward_parts", "segnet.forward", None),
        (ss, "load_checkpoint", "segnet.load_checkpoint", None),
        (ss.training.SGD, "step", "training.sgd", None),
        (ss.training, "save_checkpoint", "training.save", None),
        (ss.tenio, "write_ten", "tenio.save", _write_attrs),
        (ss.tenio, "read_ten", "tenio.load", _read_attrs),
        (ss, "read_ten", "tenio.load", _read_attrs),
        (ss.inference, "plan_tiles", "datapipe.plan", _plan_attrs),
        (ss.inference, "stitch_average", "datapipe.stitch", None),
        (ss.fusion, "forward_corrector", "fusion.corrector", None),
        (ss.inference, "fuse_residual", "fusion.fuse", None),
        (ss.training, "fuse_residual", "fusion.fuse", None),
    ]
    saved = []
    try:
        for owner, attr, layer, attrs_fn in points:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(layer, original, attrs_fn))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span analysis


def self_times(spans):
    """{span id: duration minus the time its child spans cover}. Children
    run on their parent's thread, nested inside it, so they never overlap
    one another and their durations add up."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None and s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own


def write_spans(path, spans):
    """One tab-separated line per span, in completion order."""
    with open(path, "w") as fh:
        fh.write("id\tlayer\tstart\tend\tparent\tthread\tphase\trequest"
                 "\tattrs\n")
        for sid, layer, t0, t1, parent, thread, phase, request, attrs in spans:
            fh.write(f"{sid}\t{layer}\t{t0:.9f}\t{t1:.9f}\t"
                     f"{'' if parent is None else parent}\t{thread}\t{phase}"
                     f"\t{'' if request is None else request}"
                     f"\t{'' if attrs is None else attrs}\n")


# ---------------------------------------------------------------------------
# Per-layer metrics

# Conv units by ``ConvUnit.name`` (the full net's plan; mini uses a subset),
# head branch and corrector layer. Corrector backward never runs in a
# workload, so it has no metric.
TRUNK_UNITS = tuple(
    [f"enc.b{b}.c{c}" for b, n in enumerate((2, 2, 3, 3, 3), 1)
     for c in range(n)]
    + [f"dec.b{b}.c{c}" for b, n in ((5, 3), (4, 3), (3, 3), (2, 2), (1, 1))
       for c in range(n)])
HEAD_UNITS = ("head.s3", "head.s5", "head.s7")
CORR_UNITS = ("corr.c0", "corr.c1", "corr.c2")

# Units of the per-layer metrics; the rest are seconds per iteration.
# Times on the tile thread pool are thread-seconds, summed over threads.
_UNITS = {
    "convkernels.conv_fwd.gflops": "GF/s",
    "convkernels.conv_bwd.gflops": "GF/s",
    "segnet.load_checkpoint.s": "s/setup",
    "tenio.save.mb": "MB/iter",
    "tenio.load.s": "s/setup",
    "tenio.load.mb": "MB/setup",
    "datapipe.windows": "count/iter",
    "datapipe.overlap_factor": "ratio",
    "inference.window_s.p50": "s",
    "inference.windows_per_s": "1/s",
    "inference.worker_busy_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def unit_of(name):
    return _UNITS.get(name, "s/iter")


def layer_metrics(spans, setups, iters, loop_wall, threads, train,
                  untraced_iter_s):
    """Per-layer metrics from the spans of ``setups`` traced set-ups and
    a traced loop of ``iters`` iterations (steps or scenes) that took
    ``loop_wall`` seconds. Times are per iteration unless the unit says
    per set-up. Returns (metrics, per-unit conv accounting)."""
    own = self_times(spans)
    loop = [s for s in spans if s[6] == "loop"]
    setup = [s for s in spans if s[6] == "setup"]

    def of(layer, group=loop):
        return [s for s in group if s[1] == layer]

    def dur(group):
        return sum(s[3] - s[2] for s in group)

    def per_iter(group):
        return dur(group) / iters

    def gflops(group):
        t = dur(group)
        return sum(s[8]["flops"] for s in group) / t / 1e9 if t else 0.0

    fwd = of("convkernels.conv_fwd")
    bwd = of("convkernels.conv_bwd")
    m = {
        "convkernels.conv_fwd.s": per_iter(fwd),
        "convkernels.conv_fwd.gflops": gflops(fwd),
        "convkernels.conv_fwd.direct_s":
            per_iter([s for s in fwd if s[8]["route"] == "direct"]),
        "convkernels.conv_fwd.im2col_s":
            per_iter([s for s in fwd if s[8]["route"] == "im2col"]),
        "convkernels.conv_bwd.s": per_iter(bwd),
        "convkernels.conv_bwd.gflops": gflops(bwd),
        "convkernels.pool.s": per_iter(of("convkernels.pool")),
        "convkernels.unpool.s": per_iter(of("convkernels.unpool")),
    }
    for unit in TRUNK_UNITS + HEAD_UNITS:
        m[f"conv.{unit}.fwd_s"] = per_iter([s for s in fwd
                                            if s[8]["unit"] == unit])
        m[f"conv.{unit}.bwd_s"] = per_iter([s for s in bwd
                                            if s[8]["unit"] == unit])
    for unit in CORR_UNITS:
        m[f"conv.{unit}.fwd_s"] = per_iter([s for s in fwd
                                            if s[8]["unit"] == unit])

    back = of("tensor.backward")
    plans = of("datapipe.plan")
    scene_px = sum(s[8]["scene_px"] for s in plans)
    windows = sum(s[8]["windows"] for s in plans)
    forwards = of("segnet.forward")
    top = [s for s in loop if s[4] is None]
    window_work = [s for s in top if s[1] in
                   ("segnet.forward", "nnops.softmax", "fusion.fuse")]
    m.update({
        "multikernel.head.fwd_s": per_iter(of("multikernel.head.fwd")),
        "multikernel.head.bwd_s":
            per_iter([s for s in bwd if s[8]["unit"].startswith("head.")]),
        "nnops.batchnorm.fwd_s": per_iter(of("nnops.batchnorm.fwd")),
        "nnops.softmax.s": per_iter(of("nnops.softmax")),
        "nnops.cross_entropy.s": per_iter(of("nnops.cross_entropy")),
        "tensor.backward.s": per_iter(back),
        "tensor.backward.untimed_s": sum(own[s[0]] for s in back) / iters,
        "segnet.forward.self_s": sum(own[s[0]] for s in forwards) / iters,
        "segnet.load_checkpoint.s":
            dur(of("segnet.load_checkpoint", setup)) / setups,
        "training.sgd.s": per_iter(of("training.sgd")),
        "training.save.s": per_iter(of("training.save")),
        "training.step_other_s":
            (loop_wall - dur(top)) / iters if train else 0.0,
        "tenio.save.s": per_iter(of("tenio.save")),
        "tenio.save.mb":
            sum(s[8]["bytes"] for s in of("tenio.save")) / iters / 1e6,
        "tenio.load.s": dur(of("tenio.load", setup)) / setups,
        "tenio.load.mb":
            sum(s[8]["bytes"] for s in of("tenio.load", setup)) / setups / 1e6,
        "datapipe.stitch.s": per_iter(of("datapipe.stitch")),
        "datapipe.windows": windows / iters,
        "datapipe.overlap_factor":
            sum(s[8]["window_px"] for s in plans) / scene_px if plans else 0.0,
        "datapipe.data_wait.s": per_iter(of("datapipe.data_wait")),
        "inference.window_s.p50":
            float(np.median([s[3] - s[2] for s in forwards]))
            if plans else 0.0,
        "inference.windows_per_s": windows / loop_wall,
        "inference.worker_busy_frac":
            dur(window_work) / (loop_wall * threads) if plans else 0.0,
        "fusion.corrector.s": per_iter(of("fusion.corrector")),
        "fusion.fuse.s": sum(own[s[0]] for s in of("fusion.fuse")) / iters,
        "trace.coverage":
            sum(own[s[0]] for s in loop) / (loop_wall * threads),
        "trace.overhead_frac": loop_wall / iters / untraced_iter_s - 1.0,
    })

    conv = {}
    for kind, group in (("fwd", fwd), ("bwd", bwd)):
        for s in group:
            a = s[8]
            row = conv.setdefault(f"{a['unit']}.{kind}",
                                  {"calls": 0, "s": 0.0, "flops": 0,
                                   "bytes_computed": 0})
            row["calls"] += 1
            row["s"] += s[3] - s[2]
            row["flops"] += a["flops"]
            row["bytes_computed"] += a["bytes"]
            if "route" in a:
                row["route"] = a["route"]
    for row in conv.values():
        row["gflops"] = row["flops"] / row["s"] / 1e9
        row["op_per_byte"] = row["flops"] / row["bytes_computed"]
    return m, conv
