"""A fixed-seed CLI session, for checking that a change writes the same
bytes as the commit before it.

    python3 tests/cli_session.py OUT_DIR > session.txt

It runs every subcommand: each training command, a diverged run, the
three kinds of ``predict`` (fused with ``--threads`` 1, 2 and 3),
``fusion-stats`` and ``evaluate``. Each runs through
``python -m segstack.cli`` from this checkout's ``src/``, in its own
process with BLAS pinned to one thread and OUT_DIR as the working
directory, so the runs see only relative paths. It then prints one
``sha256  path`` line per file under OUT_DIR, and for each command its
exit code and the sha256 of its stdout and of its stderr, with this
checkout's path and OUT_DIR masked. Run it from two checkouts into two
fresh directories and diff the printouts; ``tests/test_same_bits.py``
compares the printout with ``tests/golden/same_bits.txt``. The session
takes about 10 s on two cores and writes about 120 MB, nearly all of it
the full net's checkpoint. Pytest does not collect this file.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRAIN = ["--epochs", "2", "--batch-size", "4", "--patch", "32"]
# (name, arguments, expected exit code)
SESSION = [
    ("synth", ["synth", "--out", "data", "--seed", "3", "--tiles", "8",
               "--size", "64"], 0),
    ("train_irrg", ["train", "--data", "data", "--out", "irrg", *TRAIN], 0),
    ("train_comp", ["train", "--data", "data", "--out", "comp", "--stream",
                    "comp", "--init-seed", "1", *TRAIN], 0),
    ("train_full", ["train", "--data", "data", "--out", "full", "--net",
                    "full", *TRAIN], 0),
    ("train_plateau", ["train", "--data", "data", "--out", "plateau",
                       "--epochs", "4", "--batch-size", "8", "--patch", "32",
                       "--base-lr", "1e-30", "--plateau-patience", "1"], 0),
    ("train_mk", ["train", "--data", "data", "--out", "mk", "--scales",
                  "3,5,7", "--lr-ratio", "0.5", *TRAIN], 0),
    ("extend", ["extend-scale", "--data", "data", "--run", "mk", "--out",
                "extend", "--new-scale", "9", *TRAIN], 0),
    ("extend_all", ["extend-scale", "--data", "data", "--run", "mk", "--out",
                    "extend_all", "--new-scale", "9", "--unfreeze-all",
                    *TRAIN], 0),
    ("fusion", ["train-fusion", "--data", "data", "--run-a", "irrg",
                "--run-b", "comp", "--out", "fusion", "--hidden", "8",
                *TRAIN], 0),
    ("fusion_unfrozen", ["train-fusion", "--data", "data", "--run-a", "irrg",
                         "--run-b", "comp", "--out", "fusion_unfrozen",
                         "--hidden", "8", "--unfreeze-streams", *TRAIN], 0),
    ("diverged", ["train", "--data", "data", "--out", "diverged", "--epochs",
                  "5", "--patch", "32", "--base-lr", "1e8"], 3),
    ("predict_single", ["predict", "--run", "irrg", "--scene",
                        "data/tile-000", "--out", "pred_single", "--patch",
                        "32", "--stride", "16"], 0),
    ("predict_mk", ["predict", "--run", "mk", "--scene", "data/tile-001",
                    "--out", "pred_mk", "--patch", "32", "--stride", "16"],
     0),
    *((f"predict_fused_t{n}", ["predict", "--run-a", "irrg", "--run-b",
                               "comp", "--fusion-run", "fusion_unfrozen",
                               "--scene", "data/tile-002", "--out",
                               f"pred_fused_t{n}", "--patch", "32",
                               "--stride", "16", "--threads", str(n)], 0)
      for n in (1, 2, 3)),
    ("fusion_stats", ["fusion-stats", "--data", "data", "--run-a", "irrg",
                      "--run-b", "comp", "--fusion-run", "fusion"], 0),
    ("evaluate", ["evaluate", "--pred", "pred_single/labels.pgm", "--gt",
                  "data/tile-000.labels.pgm"], 0),
]


def _digest(text: str, out_dir: str) -> str:
    for path, mask in ((out_dir, "<out>"), (ROOT, "<root>")):
        text = text.replace(path, mask)
    return hashlib.sha256(text.encode()).hexdigest()


def run_session(out_dir: str) -> "tuple[list[str], bool]":
    """Runs SESSION in the empty directory ``out_dir``. Returns the
    printout's lines and whether every command exited as expected."""
    out_dir = os.path.realpath(out_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    runs = []
    for name, args, want in SESSION:
        done = subprocess.run([sys.executable, "-m", "segstack.cli", *args],
                              cwd=out_dir, env=env, capture_output=True,
                              text=True)
        runs.append((name, done, want))
    lines = []
    for top, dirs, files in os.walk(out_dir):
        dirs.sort()
        for fname in sorted(files):
            path = os.path.join(top, fname)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, out_dir)}")
    for name, done, want in runs:
        lines.append(f"{name} exit={done.returncode} "
                     f"stdout={_digest(done.stdout, out_dir)} "
                     f"stderr={_digest(done.stderr, out_dir)}")
    return lines, all(done.returncode == want for _, done, want in runs)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tests/cli_session.py OUT_DIR", file=sys.stderr)
        return 1
    os.makedirs(argv[1], exist_ok=True)
    if os.listdir(argv[1]):
        print(f"{argv[1]} is not empty", file=sys.stderr)
        return 1
    lines, ok = run_session(argv[1])
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
