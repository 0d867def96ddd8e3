"""Command-line surface.

Subcommands: synth, train, train-mk, extend-scale, train-fusion, predict,
evaluate, fusion-stats. Every option can also come from a flat key=value
config file (--config); explicit flags win over file values.

Exit codes: 0 success, 1 usage error, 2 data or shape error, 3 numeric
divergence during training.
"""

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import tenio
from .datapipe import (CLASS_NAMES, TileGeometry, colorize_labels, read_pgm,
                       synth_dataset, write_pgm, write_ppm)
from .errors import ConfigError, DivergenceError, FormatError, SegstackError
from .fusion import init_corrector, make_corrector
from .inference import labels_from_probs, predict_probs, predict_probs_fused
from .metrics import ConfusionMatrix, erode_boundaries, f1_scores, \
    format_report
from .multikernel import extend_with_scale
from .segnet import (build_segnet, init_he, named_parameters, param_groups,
                     ParamGroup)
from .training import (MANIFEST_NAME, TrainConfig, load_fusion_run, load_run,
                       measure_fusion_stats, train_fusion, train_segnet)

DATASET_INDEX = "dataset.txt"
# band streams, each read from its own <tile>.<stream>.ten; a run manifest
# without a "stream" key is read as the first
STREAMS = ("irrg", "comp")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the documented contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_config_file(path) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got "
                              f"{stripped!r}")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _apply_config_file(parser, sub, args, argv):
    """Merge file values under explicit flags by re-parsing with the file
    values as defaults. Keys use the flag spelling without dashes."""
    actions = {a.option_strings[-1].lstrip("-"): a for a in sub._actions
               if a.option_strings}
    defaults = {}
    for key, raw in _read_config_file(args.config).items():
        action = actions.get(key)
        if action is None or key in ("config", "help"):
            raise ConfigError(f"unknown config key {key!r}")
        if action.nargs == 0:  # store_true switches
            lowered = raw.lower()
            if lowered not in ("true", "false", "1", "0", "yes", "no"):
                raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
            defaults[action.dest] = lowered in ("true", "1", "yes")
        else:
            try:
                defaults[action.dest] = (action.type or str)(raw)
            except ValueError:
                raise ConfigError(f"{key}: bad value {raw!r}") from None
        action.required = False
    sub.set_defaults(**defaults)
    return parser.parse_args(argv if argv is not None else sys.argv[1:])


def _add_train_flags(p):
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--init-seed", type=int, default=0)
    for f in fields(TrainConfig):  # --base-lr etc., with the config's defaults
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default)


def _add_network_flags(p):
    """The network a command builds from scratch; commands that load runs
    take it from their manifests."""
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--net", default="mini", choices=("mini", "full"))
    p.add_argument("--stream", default=STREAMS[0], choices=STREAMS)


def _train_config(args) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name)
                          for f in fields(TrainConfig)})


def _load_dataset(data_dir, *streams):
    """Per tile listed by dataset.txt, in file order, the bands of each
    named stream, then the labels."""
    index = os.path.join(data_dir, DATASET_INDEX)
    if not os.path.exists(index):
        raise ConfigError(f"no {DATASET_INDEX} in {data_dir}")
    try:
        with open(index, encoding="utf-8") as fh:
            stems = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{index}: not UTF-8: {exc}") from None
    samples = []
    for stem in stems:
        if (stem in ("", ".", "..") or os.path.basename(stem) != stem
                or "\0" in stem):
            raise FormatError(f"{index}: sample {stem!r} is not a file name "
                              "in the data directory")
        base = os.path.join(data_dir, stem)
        samples.append(tuple(tenio.read_ten(f"{base}.{s}.ten")
                             for s in streams)
                       + (read_pgm(base + ".labels.pgm"),))
    return samples


def _load_run(run_dir):
    """``training.load_run`` plus the CLI's own ``stream`` key, which
    names the band file the run reads; a run without one is irrg."""
    spec, manifest = load_run(run_dir)
    if manifest.setdefault("stream", STREAMS[0]) not in STREAMS:
        raise FormatError(f"{os.path.join(run_dir, MANIFEST_NAME)}: unknown "
                          f"stream {manifest['stream']!r}")
    return spec, manifest


def _run_relative(path, out_dir):
    """``path`` relative to the run directory ``out_dir``, so that the
    manifest does not depend on where the command ran from."""
    return os.path.relpath(os.path.realpath(path), os.path.realpath(out_dir))


def _extra(args, stream, variant, n_tiles):
    return {"variant": variant, "stream": stream,
            "data": _run_relative(args.data, args.out), "n_tiles": n_tiles,
            "init_seed": args.init_seed}


# ---------------------------------------------------------------------------
# Subcommand bodies


def cmd_synth(args):
    tiles = synth_dataset(seed=args.seed, n_tiles=args.tiles, size=args.size)
    os.makedirs(args.out, exist_ok=True)
    stems = []
    for i, (irrg, comp, labels) in enumerate(tiles):
        stem = f"tile-{i:03d}"
        base = os.path.join(args.out, stem)
        tenio.write_ten(base + ".irrg.ten", irrg.data)
        tenio.write_ten(base + ".comp.ten", comp.data)
        write_pgm(base + ".labels.pgm", labels)
        write_ppm(base + ".render.ppm", colorize_labels(labels))
        stems.append(stem)
    with open(os.path.join(args.out, DATASET_INDEX), "w") as fh:
        fh.write("\n".join(stems) + "\n")
    print(f"wrote {len(stems)} tiles of {args.size}x{args.size} to {args.out}")
    return 0


def _run_train(args, head_scales):
    dataset = _load_dataset(args.data, args.stream)
    spec = build_segnet(k=args.classes, scale=args.net, in_channels=3,
                        head_scales=head_scales)
    init_he(spec, seed=args.init_seed)
    variant = "plain" if head_scales == (3,) else "multikernel"
    manifest = train_segnet(spec, dataset, _train_config(args), args.out,
                            manifest_extra=_extra(args, args.stream, variant,
                                                  len(dataset)))
    last = manifest["epochs"][-1]
    print(f"trained {manifest['epochs'][-1]['epoch'] + 1} epochs, "
          f"final loss {last['loss']:.4f}, accuracy {last['accuracy']:.3f}")
    print(f"run written to {args.out}")
    return 0


def cmd_train(args):
    return _run_train(args, (3,))


def cmd_train_mk(args):
    try:
        scales = tuple(int(s) for s in args.scales.split(","))
    except ValueError:
        raise ConfigError(f"--scales: expected comma-separated integers, "
                          f"got {args.scales!r}") from None
    return _run_train(args, scales)


def cmd_extend_scale(args):
    spec, run_manifest = _load_run(args.run)
    stream = run_manifest["stream"]
    dataset = _load_dataset(args.data, stream)

    old_ids = {id(t) for _, t, g in named_parameters(spec) if g == "head"}
    rng = np.random.default_rng(args.init_seed)
    spec.head = extend_with_scale(spec.head, args.new_scale, rng)
    if args.unfreeze_all:
        groups = param_groups(spec, args.lr_ratio)
    else:
        frozen, fresh = [], []
        for name, t, _ in named_parameters(spec):
            (fresh if id(t) not in old_ids and name.startswith("head.")
             else frozen).append((name, t))
        groups = [ParamGroup("frozen", 0.0, frozen),
                  ParamGroup("new_branch", 1.0, fresh)]

    extra = _extra(args, stream, "extended", len(dataset))
    extra["extended_from"] = _run_relative(args.run, args.out)
    extra["new_scale"] = args.new_scale
    manifest = train_segnet(spec, dataset, _train_config(args), args.out,
                            groups=groups, manifest_extra=extra)
    print(f"extended head to scales {manifest['head_scales']}, "
          f"run written to {args.out}")
    return 0


def cmd_train_fusion(args):
    spec_a, man_a = _load_run(args.run_a)
    spec_b, man_b = _load_run(args.run_b)
    dataset = _load_dataset(args.data, man_a["stream"], man_b["stream"])
    corr = make_corrector(
        in_channels=spec_a.head.in_channels + spec_b.head.in_channels,
        k=spec_a.k, hidden=args.hidden)
    init_corrector(corr, seed=args.init_seed)
    extra = {key: _run_relative(getattr(args, key), args.out)
             for key in ("run_a", "run_b", "data")}
    extra.update(n_tiles=len(dataset), init_seed=args.init_seed)
    manifest = train_fusion(spec_a, spec_b, corr, dataset,
                            _train_config(args), args.out,
                            unfreeze_streams=args.unfreeze_streams,
                            manifest_extra=extra)
    last = manifest["epochs"][-1]
    print(f"fusion corrector trained, final loss {last['loss']:.4f}, "
          f"accuracy {last['accuracy']:.3f}")
    print(f"run written to {args.out}")
    return 0


def cmd_predict(args):
    if args.run and (args.run_a or args.run_b or args.fusion_run):
        raise ConfigError("predict takes --run alone, or --run-a and --run-b "
                          "with an optional --fusion-run")
    if args.run:
        runs, corr = [_load_run(args.run)], None
    elif args.run_a and args.run_b:
        runs = [_load_run(args.run_a), _load_run(args.run_b)]
        corr = (load_fusion_run(args.fusion_run, *(s for s, _ in runs))
                if args.fusion_run else None)
    else:
        raise ConfigError("predict needs --run, or --run-a and --run-b")
    specs = [spec for spec, _ in runs]
    bands = [tenio.read_ten(f"{args.scene}.{manifest['stream']}.ten")
             for _, manifest in runs]
    geom = TileGeometry(args.patch, args.stride)
    if len(runs) == 2:
        probs = predict_probs_fused(*specs, corr, *bands, geom, args.threads)
    else:
        probs = predict_probs(*specs, *bands, geom, args.threads)
    labels = labels_from_probs(probs)
    os.makedirs(args.out, exist_ok=True)
    tenio.write_ten(os.path.join(args.out, "probs.ten"), probs)
    write_pgm(os.path.join(args.out, "labels.pgm"), labels)
    write_ppm(os.path.join(args.out, "render.ppm"), colorize_labels(labels))
    print(f"prediction written to {args.out} "
          f"({probs.shape[1]}x{probs.shape[2]}, {len(np.unique(labels))} "
          "distinct classes)")
    return 0


def cmd_evaluate(args):
    pred = read_pgm(args.pred)
    gt = read_pgm(args.gt)
    eroded = erode_boundaries(gt, radius=args.radius)
    cm = ConfusionMatrix(args.classes)
    cm.accumulate(pred, eroded)
    names = CLASS_NAMES if args.classes == len(CLASS_NAMES) else None
    print(format_report(f1_scores(cm), class_names=names))
    return 0


def cmd_fusion_stats(args):
    spec_a, man_a = _load_run(args.run_a)
    spec_b, man_b = _load_run(args.run_b)
    corr = load_fusion_run(args.fusion_run, spec_a, spec_b)
    dataset = _load_dataset(args.data, man_a["stream"], man_b["stream"])
    stats, corr_mag, avg_mag = measure_fusion_stats(spec_a, spec_b, corr,
                                                    dataset)
    for key in ("m_avg", "s_avg", "m_corr", "s_corr"):
        print(f"{key}={getattr(stats, key):.6f}")
    print(f"mean_correction_magnitude={corr_mag:.6f}")
    print(f"mean_averaged_magnitude={avg_mag:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Wiring


def build_parser():
    parser = _Parser(prog="segstack",
                     description="encoder-decoder segmentation toolkit")
    subs = parser.add_subparsers(dest="command", metavar="command")
    subs.required = True
    registry = {}

    def sub(name, fn, help_text):
        p = subs.add_parser(name, help=help_text, add_help=True)
        p.add_argument("--config", help="flat key=value file; flags win")
        p.set_defaults(func=fn)
        registry[name] = p
        return p

    p = sub("synth", cmd_synth, "write a synthetic labeled dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tiles", type=int, default=32)
    p.add_argument("--size", type=int, default=64)

    p = sub("train", cmd_train, "train a single-stream network")
    _add_train_flags(p)
    _add_network_flags(p)

    p = sub("train-mk", cmd_train_mk, "train with a multi-kernel head")
    _add_train_flags(p)
    _add_network_flags(p)
    p.add_argument("--scales", default="3,5,7",
                   help="comma-separated odd kernel sizes")

    p = sub("extend-scale", cmd_extend_scale,
            "add a head branch to a trained run and fine-tune it")
    _add_train_flags(p)
    p.add_argument("--run", required=True, help="existing run directory")
    p.add_argument("--new-scale", type=int, required=True)
    p.add_argument("--unfreeze-all", action="store_true",
                   help="train the whole network, not just the new branch")

    p = sub("train-fusion", cmd_train_fusion,
            "train a residual corrector over two stream runs")
    _add_train_flags(p)
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--unfreeze-streams", action="store_true")

    p = sub("predict", cmd_predict, "tiled full-scene prediction")
    p.add_argument("--run", help="single-stream run directory")
    p.add_argument("--run-a")
    p.add_argument("--run-b")
    p.add_argument("--fusion-run", help="corrector run directory")
    p.add_argument("--scene", required=True,
                   help="tile stem, e.g. data/tile-000")
    p.add_argument("--out", required=True)
    p.add_argument("--patch", type=int, default=64)
    p.add_argument("--stride", type=int, default=64)
    p.add_argument("--threads", type=int, default=1)

    p = sub("evaluate", cmd_evaluate, "score a prediction against labels")
    p.add_argument("--pred", required=True, help="predicted labels PGM")
    p.add_argument("--gt", required=True, help="ground-truth labels PGM")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--radius", type=int, default=3,
                   help="boundary erosion radius; 0 scores full labels")

    p = sub("fusion-stats", cmd_fusion_stats,
            "correction-vs-average statistics of a fusion run")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--fusion-run", required=True)
    p.add_argument("--data", required=True)

    return parser, registry


def main(argv=None) -> int:
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config_file(parser, registry[args.command], args,
                                      argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code if isinstance(exc.code, int) else 1
    except DivergenceError as exc:
        print(f"segstack: divergence: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"segstack: error: {exc}", file=sys.stderr)
        return 1
    except SegstackError as exc:
        print(f"segstack: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"segstack: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
