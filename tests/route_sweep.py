"""Times every conv shape of the three benchmark workloads on both conv
routes, the sweep behind ``convkernels.select_route``.

    python3 tests/route_sweep.py [REPS]

For each distinct conv of ``train_mk`` (the mini net with the (3,5,7)
head, batch 4 at 64 px), ``train_full`` (the full net, same batch) and
``predict_fused`` (two mini streams and a hidden-64 corrector on one
64 px window) it prints the median milliseconds of the forward, the
input gradient and the weight gradient on the direct and the im2col
route, over REPS alternating repetitions (default 5), and the route the
rule picks for each.  The prediction workload runs forwards only.  BLAS
is pinned to one thread, as in ``perfbench/run.py``, so kernels above
the size gate run as two parts.  Pytest does not collect this file.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from segstack import convkernels as ck  # noqa: E402
from segstack.fusion import forward_corrector, make_corrector  # noqa: E402
from segstack.segnet import build_segnet, forward_parts  # noqa: E402
from segstack.tensor import Tensor, no_grad  # noqa: E402

ROUTES = ("direct", "im2col")


def workload_convs():
    """{(workload, x shape, w shape, pad, stride)} of every conv that the
    workloads' forwards run."""
    seen, real = set(), ck.conv_forward
    name = None

    def spy(x, w, pad, stride):
        seen.add((name, x.shape, w.shape, tuple(pad), stride))
        return real(x, w, pad, stride)

    ck.conv_forward = spy
    try:
        with no_grad():
            for name, scale, scales, batch in (
                    ("train_mk", "mini", (3, 5, 7), 4),
                    ("train_full", "full", (3,), 4),
                    ("predict_fused", "mini", (3,), 1)):
                spec = build_segnet(k=5, scale=scale, in_channels=3,
                                    head_scales=scales)
                x = Tensor(np.zeros((batch, 3, 64, 64), np.float32))
                _, feats = forward_parts(spec, x, mode="train")
            corr = make_corrector(in_channels=2 * feats.shape[1], k=5,
                                  hidden=64)
            forward_corrector(corr, Tensor(np.zeros(
                (1, 2 * feats.shape[1], 64, 64), np.float32)))
    finally:
        ck.conv_forward = real
    return sorted(seen, key=lambda s: (s[0], -s[1][1], s[1][3], s[2][0]))


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - t0)


def sweep(shape, reps):
    """{(op, route): median ms} for one conv shape."""
    workload, xs, ws, pad, stride = shape
    rng = np.random.default_rng(0)
    x = rng.standard_normal(xs).astype(np.float32)
    w = rng.standard_normal(ws).astype(np.float32)
    oh, ow = ck.check_conv_shapes(x, w, pad, stride)
    g = rng.standard_normal((xs[0], oh, ow, ws[0])).astype(np.float32)
    kh, kw, c = ws[2], ws[3], ws[1]
    real_wgrad = ck._weight_grad

    def grad_x_only():  # conv_backward with the weight gradient skipped
        ck._weight_grad = lambda *a: np.zeros((ws[0], kh, kw, c), np.float32)
        try:
            ck.conv_backward(x, w, g, pad, stride)
        finally:
            ck._weight_grad = real_wgrad

    ops = {"fwd": lambda: ck.conv_forward(x, w, pad, stride)}
    if workload != "predict_fused":
        ops["grad_x"] = grad_x_only
        ops["grad_w"] = lambda: ck.conv_backward(x, w, g, pad, stride,
                                                 need_input_grad=False)
    times = {(op, r): [] for op in ops for r in ROUTES}
    real_route = ck.select_route
    try:
        for rep in range(reps + 1):
            for r in ROUTES if rep % 2 else ROUTES[::-1]:
                ck.select_route = lambda rows, c, oc: r
                for op, fn in ops.items():
                    t = timed(fn)
                    if rep:  # the first repetition warms up
                        times[op, r].append(t)
    finally:
        ck.select_route = real_route
    return {key: statistics.median(ts) for key, ts in times.items()}


def main():
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print(f"median ms over {reps} reps, BLAS pinned, split gate "
          f"{ck._SPLIT_MACS:,} MACs; pick = the rule's route")
    print(f"{'workload':13} {'px':>3} {'c->oc':>9} {'k':>3} | "
          + " | ".join(f"{op:>6} direct im2col pick"
                       for op in ("fwd", "grad_x", "grad_w")))
    for shape in workload_convs():
        workload, xs, ws, pad, stride = shape
        n, h, wd, c = xs
        oc, _, kh, kw = ws
        got = sweep(shape, reps)
        oh, ow = ck.check_conv_shapes(np.empty(xs, np.float32),
                                      np.empty(ws, np.float32), pad, stride)
        picks = {"fwd": ck.select_route(n * oh * ow, c, oc),
                 "grad_x": ck.select_route(n * h * wd, oc, c),
                 "grad_w": ck.select_route(n * oh * ow, c, oc)}
        cells = []
        for op in ("fwd", "grad_x", "grad_w"):
            if (op, "direct") in got:
                cells.append(f"{'':>6} {got[op, 'direct']:6.2f} "
                             f"{got[op, 'im2col']:6.2f} {picks[op]:>6}")
            else:
                cells.append(f"{'':>6} {'-':>6} {'-':>6} {'-':>6}")
        print(f"{workload:13} {h:3d} {f'{c}->{oc}':>9} {kh:3d} | "
              + " | ".join(cells), flush=True)


if __name__ == "__main__":
    main()
