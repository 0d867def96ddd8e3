"""Command-line surface.

Subcommands: synth, train (its --scales gives the multi-kernel head),
extend-scale, train-fusion, predict, evaluate, fusion-stats. Every
option, a required one too, can also come from a flat key=value config
file (--config), whose values are parsed as flags placed before the
typed ones: the same types, choices and ranges apply, a bad value is
reported under its flag's name, and typed flags win.

Exit codes: 0 success, 1 usage error, 2 data or shape error or out of
memory, 3 numeric divergence during training.
"""

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import tenio
from .datapipe import (CLASS_NAMES, PALETTE, TileGeometry, check_bands,
                       colorize_labels, read_pgm, synth_dataset, write_pgm,
                       write_ppm)
from .errors import (ConfigError, DataError, DivergenceError, FormatError,
                     SegstackError, ShapeError, SpecError)
from .fusion import init_corrector, make_corrector
from .inference import check_threads, labels_from_probs, predict_scene
from .metrics import (ConfusionMatrix, check_radius, erode_boundaries,
                      f1_scores, format_report)
from .multikernel import extend_with_scale
from .nnops import IGNORE_LABEL
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


def _config_flags(sub, path) -> "list[str]":
    """The config file's values as flags of the subcommand parser ``sub``.
    Keys use the flag spelling without dashes; a true switch becomes its
    flag and a false one nothing."""
    actions = {a.option_strings[-1].lstrip("-"): a for a in sub._actions
               if a.option_strings}
    flags = []
    for key, raw in _read_config_file(path).items():
        action = actions.get(key)
        if action is None or key in ("config", "help"):
            raise ConfigError(f"unknown config key {key!r}")
        if action.nargs != 0:
            flags.append(f"--{key}={raw}")
        elif raw.lower() in ("true", "1", "yes"):  # store_true switches
            flags.append(f"--{key}")
        elif raw.lower() not in ("false", "0", "no"):
            raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    return flags


def nonnegative(text) -> int:
    """A seed flag's value; numpy's generators take no negative seed."""
    if int(text) < 0:
        raise ValueError(text)  # argparse reports it as a usage error
    return int(text)


def scales(text) -> "tuple[int, ...]":
    """A --scales value: comma-separated kernel sizes."""
    return tuple(int(s) for s in text.split(","))


def _add_train_flags(p):
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--init-seed", type=nonnegative, default=0)
    for f in fields(TrainConfig):  # --base-lr etc., with the config's defaults
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default)


def _train_config(args) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name)
                          for f in fields(TrainConfig)})


def _load_dataset(data_dir, k, patch, *streams):
    """Per tile listed by dataset.txt, in file order, the bands of each
    named stream, then the labels. Each band file must be finite, have
    the first tile's band count for its stream, and its labels' extent.
    Each label must be below the ``k`` classes or the ignore value, and
    a tile at least ``patch`` high and wide (unless that is None)."""
    index = os.path.join(data_dir, DATASET_INDEX)
    if not os.path.exists(index):
        raise ConfigError(f"no {DATASET_INDEX} in {data_dir}")
    try:
        with open(index, encoding="utf-8") as fh:
            stems = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{index}: not UTF-8: {exc}") from None
    samples, counts = [], {}
    for stem in stems:
        if (stem in ("", ".", "..") or os.path.basename(stem) != stem
                or "\0" in stem):
            raise FormatError(f"{index}: sample {stem!r} is not a file name "
                              "in the data directory")
        base = os.path.join(data_dir, stem)
        paths = [f"{base}.{s}.ten" for s in streams]
        bands = [check_bands(tenio.read_ten(p), p) for p in paths]
        labels = read_pgm(base + ".labels.pgm")
        bad = np.argwhere((labels >= k) & (labels != IGNORE_LABEL))
        if len(bad):
            y, x = bad[0]
            raise DataError(f"{base}.labels.pgm has label {labels[y, x]} at "
                            f"row {y}, column {x}, not below {k} classes or "
                            f"{IGNORE_LABEL}")
        if patch is not None and min(labels.shape) < patch:
            raise ConfigError(f"--patch {patch} is larger than tile {base}, "
                              f"whose labels are {labels.shape}")
        for s, p, b in zip(streams, paths, bands):
            if b.shape != (counts.setdefault(s, len(b)),) + labels.shape:
                raise ShapeError(f"{p} has shape {b.shape}, not {counts[s]} "
                                 f"bands over its labels' {labels.shape}")
        samples.append((*bands, labels))
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


def cmd_train(args):
    config = _train_config(args)
    spec = build_segnet(k=args.classes, scale=args.net, in_channels=3,
                        head_scales=args.scales)
    dataset = _load_dataset(args.data, spec.k, args.patch, args.stream)
    init_he(spec, seed=args.init_seed)
    variant = "plain" if args.scales == (3,) else "multikernel"
    manifest = train_segnet(spec, dataset, config, args.out,
                            manifest_extra=_extra(args, args.stream, variant,
                                                  len(dataset)))
    last = manifest["epochs"][-1]
    print(f"trained {last['epoch'] + 1} epochs, "
          f"final loss {last['loss']:.4f}, accuracy {last['accuracy']:.3f}")
    print(f"run written to {args.out}")
    return 0


def cmd_extend_scale(args):
    config = _train_config(args)
    spec, run_manifest = _load_run(args.run)
    stream = run_manifest["stream"]
    dataset = _load_dataset(args.data, spec.k, args.patch, stream)

    rng = np.random.default_rng(args.init_seed)
    spec.head = extend_with_scale(spec.head, args.new_scale, rng)
    if args.unfreeze_all:
        groups = param_groups(spec, args.lr_ratio)
    else:
        frozen, fresh = [], []
        for name, t, _ in named_parameters(spec):
            (fresh if name.startswith(f"head.s{args.new_scale}.")
             else frozen).append((name, t))
        groups = [ParamGroup("frozen", 0.0, frozen),
                  ParamGroup("new_branch", 1.0, fresh)]

    extra = _extra(args, stream, "extended", len(dataset))
    extra["extended_from"] = _run_relative(args.run, args.out)
    extra["new_scale"] = args.new_scale
    manifest = train_segnet(spec, dataset, config, args.out, groups=groups,
                            manifest_extra=extra)
    print(f"extended head to scales {manifest['head_scales']}, "
          f"run written to {args.out}")
    return 0


def cmd_train_fusion(args):
    config = _train_config(args)
    spec_a, man_a = _load_run(args.run_a)
    spec_b, man_b = _load_run(args.run_b)
    corr = make_corrector(
        in_channels=spec_a.head.in_channels + spec_b.head.in_channels,
        k=spec_a.k, hidden=args.hidden)
    dataset = _load_dataset(args.data, spec_a.k, args.patch, man_a["stream"],
                            man_b["stream"])
    init_corrector(corr, seed=args.init_seed)
    extra = {key: _run_relative(getattr(args, key), args.out)
             for key in ("run_a", "run_b", "data")}
    extra.update(n_tiles=len(dataset), init_seed=args.init_seed)
    manifest = train_fusion(spec_a, spec_b, corr, dataset, config, args.out,
                            unfreeze_streams=args.unfreeze_streams,
                            manifest_extra=extra)
    last = manifest["epochs"][-1]
    print(f"fusion corrector trained, final loss {last['loss']:.4f}, "
          f"accuracy {last['accuracy']:.3f}")
    print(f"run written to {args.out}")
    return 0


def cmd_predict(args):
    geom = TileGeometry(args.patch, args.stride)
    check_threads(args.threads)
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
    k = max(spec.k for spec in specs)
    if k > len(PALETTE):
        raise SpecError(f"the run has {k} classes, but predict renders at "
                        f"most {len(PALETTE)}, one per palette colour")
    bands = [tenio.read_ten(f"{args.scene}.{manifest['stream']}.ten")
             for _, manifest in runs]
    probs = predict_scene(specs, corr, bands, geom, args.threads)
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
    cm = ConfusionMatrix(args.classes)
    check_radius(args.radius)
    pred = read_pgm(args.pred)
    gt = read_pgm(args.gt)
    eroded = erode_boundaries(gt, radius=args.radius)
    cm.accumulate(pred, eroded)
    names = CLASS_NAMES if args.classes == len(CLASS_NAMES) else None
    print(format_report(f1_scores(cm), class_names=names))
    return 0


def cmd_fusion_stats(args):
    spec_a, man_a = _load_run(args.run_a)
    spec_b, man_b = _load_run(args.run_b)
    corr = load_fusion_run(args.fusion_run, spec_a, spec_b)
    dataset = _load_dataset(args.data, spec_a.k, None, man_a["stream"],
                            man_b["stream"])
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
    # allow_abbrev=False: a flag prefix such as --lr must not stand for
    # --lr-ratio
    parser = _Parser(prog="segstack", allow_abbrev=False,
                     description="encoder-decoder segmentation toolkit")
    subs = parser.add_subparsers(dest="command", metavar="command")
    subs.required = True
    registry = {}

    def sub(name, fn, help_text):
        p = subs.add_parser(name, help=help_text, add_help=True,
                            allow_abbrev=False)
        p.add_argument("--config", help="flat key=value file; flags win")
        p.set_defaults(func=fn)
        registry[name] = p
        return p

    p = sub("synth", cmd_synth, "write a synthetic labeled dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=nonnegative, default=0)
    p.add_argument("--tiles", type=int, default=32)
    p.add_argument("--size", type=int, default=64)

    # only train builds a network; the others read theirs from run manifests
    p = sub("train", cmd_train, "train a single-stream network")
    _add_train_flags(p)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--net", default="mini", choices=("mini", "full"))
    p.add_argument("--stream", default=STREAMS[0], choices=STREAMS)
    p.add_argument("--scales", type=scales, default=(3,),
                   help="comma-separated odd head kernel sizes")

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
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # a config file's flags go right after the subcommand, so the
        # typed flags after them win: argparse keeps a flag's last value
        if argv and argv[0] in registry:
            pre = _Parser(prog=f"segstack {argv[0]}", add_help=False,
                          allow_abbrev=False)
            pre.add_argument("--config")
            path = pre.parse_known_args(argv[1:])[0].config
            if path:
                argv[1:1] = _config_flags(registry[argv[0]], path)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code if isinstance(exc.code, int) else 1
    except DivergenceError as exc:
        print(f"segstack: divergence: {exc}", file=sys.stderr)
        return 3
    except (SegstackError, OSError, MemoryError) as exc:
        print(f"segstack: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
