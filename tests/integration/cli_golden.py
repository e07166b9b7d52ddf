#!/usr/bin/env python3
"""End-to-end checks of the `ssdfail_cli` binary.

  cli_golden.py golden  CLI GOLDEN_FILE [--update]
      Runs every subcommand on tiny seeded fleets inside a temp directory
      and compares exit codes, masked stdout, and the SHA-256 of every
      deterministic file written (traces, models, stores) against
      GOLDEN_FILE.  Wall-clock, throughput, latency, and WAL-segmentation
      fields are masked: they depend on timing, not on the program's
      answer.  --update rewrites GOLDEN_FILE instead of comparing.

  cli_golden.py rejects CLI
      Checks that malformed invocations (unknown or misspelled flags,
      stray arguments, non-numeric or negative counts, values outside an
      enumerated set) print usage and exit 2 before doing any work.

Both modes need only the built binary and Python 3; ctest registers them
in the `integration` lane (tests/integration/CMakeLists.txt).
"""

from __future__ import annotations

import difflib
import hashlib
import pathlib
import re
import subprocess
import sys
import tempfile

# (name, argv after the binary, expected exit code).  Cases run in order
# and share one working directory, so later cases read earlier outputs.
GOLDEN_CASES = [
    ("simulate-csv", "simulate --drives 20 --seed 5 --out csv", 0),
    ("simulate-binary", "simulate --drives 20 --seed 5 --binary --out v1", 0),
    ("simulate-columnar", "simulate --drives 20 --seed 5 --columnar --out v2", 0),
    ("simulate-hdd", "simulate --drives 20 --seed 5 --columnar --device-class hdd --out hdd", 0),
    ("analyze-csv", "analyze --in csv", 0),
    ("analyze-binary", "analyze --in v1 --binary", 0),
    ("convert-v1-v2", "convert --in v1.bin --out c2.bin --to v2", 0),
    ("convert-v2-v3", "convert --in c2.bin --out c3.bin --to v3 --chunk 16", 0),
    ("convert-v3-v1", "convert --in c3.bin --out c1.bin --to v1", 0),
    ("convert-bad-to", "convert --in v1.bin --out bad.bin --to v9", 2),
    ("train", "train --out model.bin --drives 20 --seed 3", 0),
    ("train-logistic", "train --out logistic.bin --model logistic --fleet v2.bin", 0),
    ("benchmark", "benchmark --drives 20 --seed 3", 0),
    ("transfer", "transfer --drives 60", 0),
    ("transfer-gate", "transfer --drives 60 --gate", 3),
    ("serve-batched", "serve --model-file model.bin --drives 20 --seed 21", 0),
    ("serve-chaos", "serve --model-file model.bin --drives 20 --seed 21 --chaos 5 --shards 3", 0),
    ("serve-fleet", "serve --model-file model.bin --fleet c3.bin", 0),
    ("serve-degraded", "serve --model-file missing.bin --drives 20 --seed 21", 0),
    ("daemon-live", "daemon --wal-dir wal --drives 20 --seed 3 --model-file model.bin "
                    "--shards 2 --fsync never --state-digest-out live.txt", 0),
    ("daemon-recover", "daemon --wal-dir wal --recover-only --shards 2 "
                       "--model-file model.bin --state-digest-out recovered.txt", 0),
    ("daemon-fleet", "daemon --wal-dir walf --fleet v1.bin --model-file model.bin "
                     "--shards 3 --producers 1 --backpressure block", 0),
    ("daemon-rotate", "daemon --wal-dir walr --drives 20 --seed 3 --model-file model.bin "
                      "--shards 2 --wal-rotate 1", 0),
    ("compact", "compact --wal-dir walr --store-dir store", 0),
    ("drift-stable", "drift --reference v2.bin --current c2.bin", 0),
    ("drift-shifted", "drift --reference v2.bin --current hdd.bin", 3),
    ("drift-store", "drift --reference store --current v2.bin --psi 1e9 --ks 2", 0),
]

# Files whose bytes are a pure function of the inputs.  WAL files are not:
# their segment boundaries follow the ring's timing-dependent batching.
GOLDEN_FILES = [
    "csv_daily.csv", "csv_swaps.csv", "v1.bin", "v2.bin", "hdd.bin", "c2.bin",
    "c3.bin", "c1.bin", "model.bin", "logistic.bin", "live.txt", "recovered.txt",
    "store/shard-000000.ssdf2",
]

MASKS = [
    (re.compile(r"\b(in|after) \d+\.\ds\b"), r"\1 N.Ns"),
    (re.compile(r"[\w.+-]+ (rows|records)/s\b"), r"N \1/s"),
    (re.compile(r"p(50|90|99) \d+us"), r"p\1 Nus"),
    (re.compile(r"wal segments \d+ \(\d+ bytes\)"), "wal segments N (N bytes)"),
    (re.compile(r"recovered \d+ segments"), "recovered N segments"),
    (re.compile(r"\d+ sealed wal file\(s\) \(\d+ bytes\)"), "N sealed wal file(s) (N bytes)"),
]


def mask(text: str) -> str:
    for pattern, replacement in MASKS:
        text = pattern.sub(replacement, text)
    return text


def run(cli: str, argv: str, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([str(pathlib.Path(cli).resolve()), *argv.split()], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def golden(cli: str, golden_path: pathlib.Path, update: bool) -> int:
    lines: list[str] = []
    with tempfile.TemporaryDirectory(prefix="ssdfail_cli_golden_") as work:
        for name, argv, expected in GOLDEN_CASES:
            result = run(cli, argv, work)
            if result.returncode != expected:
                print(f"{name}: exit {result.returncode}, expected {expected}\n"
                      f"  ssdfail_cli {argv}\n{result.stderr}", file=sys.stderr)
                return 1
            lines.append(f"== {name}: ssdfail_cli {argv} -> exit {expected}")
            lines.extend(mask(result.stdout).splitlines())
        # The metrics exposition carries latencies, so it is linted, not diffed.
        metrics = run(cli, "metrics --drives 10", work)
        lint = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve().parents[2] /
                                 "scripts" / "metrics_lint.py")],
            input=metrics.stdout, capture_output=True, text=True)
        if metrics.returncode != 0 or lint.returncode != 0:
            print(f"metrics: exit {metrics.returncode}, lint:\n{lint.stdout}",
                  file=sys.stderr)
            return 1
        lines.append("== files")
        for rel in GOLDEN_FILES:
            digest = hashlib.sha256((pathlib.Path(work) / rel).read_bytes()).hexdigest()
            lines.append(f"{digest}  {rel}")
    actual = "\n".join(lines) + "\n"
    if update:
        golden_path.write_text(actual)
        print(f"wrote {golden_path}")
        return 0
    expected_text = golden_path.read_text()
    if actual == expected_text:
        print(f"cli golden OK: {len(GOLDEN_CASES)} invocations, {len(GOLDEN_FILES)} files")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        expected_text.splitlines(keepends=True), actual.splitlines(keepends=True),
        "golden", "actual"))
    return 1


# Every case must exit 2 with nothing on stdout: rejected before any work.
REJECT_CASES = [
    "serve --drive 20 --model-file model.bin",
    "simulate --drives 20 --out x --colunmar",
    "simulate --drives 20x --out x",
    "simulate --drives 1e3 --out x",
    "analyze stray --in x",
    "simulate --device-class ssd --out x",
    "train --out x.bin --model tree",
    "serve --model-file model.bin --threshold high",
    "serve --model-file model.bin --engine fast",
    "daemon --wal-dir w --fsync sometimes",
    "drift --reference a --current b --psi 0.2.5",
    "metrics --threads two",
    "frobnicate --drives 3",
]

# Negative counts once wrapped to SIZE_MAX shards or producer threads, so
# they only run after the binary has proven that it validates counts.
NEGATIVE_CASES = [
    "simulate --drives -1 --out x",
    "serve --model-file model.bin --shards -1",
    "daemon --wal-dir w --producers -1 --drives 1",
    "daemon --wal-dir w --shards -1 --drives 1",
    "benchmark --lookahead -1",
]


def rejects(cli: str) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="ssdfail_cli_rejects_") as work:
        guard = run(cli, "simulate --drives abc --out x", work)
        if guard.returncode != 2:
            print("simulate --drives abc: accepted (exit "
                  f"{guard.returncode}); skipping the negative-count cases",
                  file=sys.stderr)
            return 1
        for argv in REJECT_CASES + NEGATIVE_CASES:
            result = run(cli, argv, work)
            ok = (result.returncode == 2 and result.stdout == "" and
                  "usage:" in result.stderr)
            if not ok:
                failures += 1
                print(f"not rejected: ssdfail_cli {argv} -> exit {result.returncode}\n"
                      f"{result.stdout}{result.stderr}", file=sys.stderr)
        leftovers = sorted(p.name for p in pathlib.Path(work).iterdir())
        if leftovers:
            failures += 1
            print(f"rejected invocations wrote files: {leftovers}", file=sys.stderr)
    if failures == 0:
        print(f"cli rejects OK: {len(REJECT_CASES) + len(NEGATIVE_CASES) + 1} invocations")
    return 1 if failures else 0


def main() -> int:
    if len(sys.argv) >= 4 and sys.argv[1] == "golden":
        return golden(sys.argv[2], pathlib.Path(sys.argv[3]), "--update" in sys.argv[4:])
    if len(sys.argv) == 3 and sys.argv[1] == "rejects":
        return rejects(sys.argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
