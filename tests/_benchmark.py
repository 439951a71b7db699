"""Shared end-to-end benchmark runner for the acceptance tests.

Runs the full pipeline (generate -> preprocess -> train -> evaluate) for one
(variant, seed) pair and caches the resulting summary on disk.  The cache key
includes a hash of the package sources, so results are invalidated whenever
the engine changes.  Training runs take minutes each; caching lets repeated
pytest invocations and pre-warmed runs share the work.

As a script it manages the cache of the twelve acceptance runs (`RUNS`):

    python3 tests/_benchmark.py check               # exit 1 unless all twelve are cached
    python3 tests/_benchmark.py refill [--delete-old]
    python3 tests/_benchmark.py run VARIANT SEED    # one run, cached and printed

`refill` trains every run missing for the current source hash: sa-re-dae
seed 42 alone first, since criterion 5 gates its `train_seconds`, then the
rest two at a time, each in its own process with `OPENBLAS_NUM_THREADS=1`.
It then prints, per run, every field that differs from the file of the
earlier source hash (`train_seconds` apart) and the `train_seconds` sum.
The earlier files are deleted only with `--delete-old`, and only once all
twelve new files exist.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # run as a script: import redae from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from redae import network, optim, pipeline  # noqa: E402
from redae.tensor import Rng  # noqa: E402

COUNT = 200
SIZE = 64
TEAR_FRACTION = 0.02
AUGMENT_COPIES = 3  # original + 3 copies = 4x training data
EPOCHS = 30
BENCH_SEEDS = (42, 43, 44)
RUNS = [(variant, seed) for variant in network.VARIANTS for seed in BENCH_SEEDS]
TIMED_RUN = ("sa-re-dae", 42)  # criterion 5 gates its train_seconds: run it alone

_PKG_DIR = Path(network.__file__).parent
CACHE_DIR = Path(__file__).parent / ".bench_cache"


def source_hash() -> str:
    h = hashlib.sha256()
    for p in sorted(_PKG_DIR.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_benchmark(variant: str, seed: int) -> dict:
    """Full pipeline run; returns a JSON-able summary dict."""
    t0 = time.monotonic()
    samples, manifest = pipeline.generate_dataset(COUNT, SIZE, SIZE, seed,
                                                  TEAR_FRACTION)
    by_id = {s.id: s for s in samples}
    processed, manifest = pipeline.preprocess(
        by_id, manifest, equalize=True, augment_copies=AUGMENT_COPIES,
        seed=seed)
    train_set = [processed[i] for i in manifest.train]
    test_set = [processed[i] for i in manifest.test]

    net = network.build(variant, [16, 32], 3, rng=Rng(seed))
    cfg = optim.TrainConfig(epochs=EPOCHS, seed=seed, val_fraction=0.0)
    _, log = optim.train(net, train_set, None, cfg)
    train_seconds = time.monotonic() - t0

    report, _ = optim.evaluate(net, test_set)
    # report values are percentages; store fractions in [0, 1]
    per_class = {m.name: {"dice": m.dice / 100.0, "iou": m.iou / 100.0,
                          "recall": m.recall / 100.0}
                 for m in report.classes}
    return {
        "variant": variant,
        "seed": seed,
        "epoch_losses": [log.epoch_mean_loss(e) for e in range(1, EPOCHS + 1)],
        "train_seconds": train_seconds,
        "n_train": len(train_set),
        "n_test": len(test_set),
        "per_class": per_class,
        "mean_dice": sum(c["dice"] for c in per_class.values()) / len(per_class),
        "global_accuracy": report.global_accuracy / 100.0,
    }


def cache_path(variant: str, seed: int, key: str) -> Path:
    return CACHE_DIR / f"{variant}-{seed}-{key}.json"


def cached_benchmark(variant: str, seed: int) -> dict:
    CACHE_DIR.mkdir(exist_ok=True)
    path = cache_path(variant, seed, source_hash())
    if path.exists():
        return json.loads(path.read_text())
    result = run_benchmark(variant, seed)
    path.write_text(json.dumps(result, indent=1))
    return result


def missing_runs(key: str) -> list[str]:
    return [cache_path(v, s, key).name for v, s in RUNS if not cache_path(v, s, key).exists()]


def check() -> int:
    key = source_hash()
    missing = missing_runs(key)
    if missing:
        print(f"tests/.bench_cache/ lacks {len(missing)} of {len(RUNS)} files for source "
              f"hash {key}: {', '.join(missing)}. Refill it with "
              "`python3 tests/_benchmark.py refill` and commit the files.", file=sys.stderr)
        return 1
    print(f"tests/.bench_cache/ holds all {len(RUNS)} files for source hash {key}")
    return 0


def _flat(value, prefix: str = "") -> dict:
    """Nested dicts and lists as {"a.b.0": leaf}."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    out: dict = {}
    for k, v in items:
        out.update(_flat(v, f"{prefix}.{k}" if prefix else str(k)))
    return out


def field_diffs(old: dict, new: dict) -> list[str]:
    """Every field but train_seconds whose value differs, as "name: old -> new"."""
    a, b = _flat(old), _flat(new)
    names = list(a) + [k for k in b if k not in a]
    return [f"{k}: {a.get(k)!r} -> {b.get(k)!r}" for k in names
            if k != "train_seconds" and a.get(k) != b.get(k)]


def _run_in_process(run: tuple[str, int], env: dict) -> bool:
    import subprocess  # here, not at the top: perfbench imports this module
    variant, seed = run
    done = subprocess.run([sys.executable, __file__, "run", variant, str(seed)],
                          env={**os.environ, **env}, capture_output=True, text=True)
    if done.returncode:
        print(f"{variant}-{seed} failed (exit {done.returncode}):\n{done.stderr}", flush=True)
    else:
        secs = json.loads(done.stdout)["train_seconds"]
        print(f"{variant}-{seed} done: train_seconds {secs:.0f}", flush=True)
    return done.returncode == 0


def refill(delete_old: bool) -> int:
    from concurrent.futures import ThreadPoolExecutor
    key = source_hash()
    old_keys = {p.stem.rsplit("-", 1)[1] for p in CACHE_DIR.glob("*.json")} - {key}
    if len(old_keys) > 1:
        print(f"tests/.bench_cache/ holds files of {len(old_keys)} earlier source hashes "
              f"({', '.join(sorted(old_keys))}); keep only the last one", file=sys.stderr)
        return 1
    old_key = next(iter(old_keys), None)
    todo = [r for r in RUNS if not cache_path(*r, key).exists()]
    print(f"source hash {key}: {len(RUNS) - len(todo)} of {len(RUNS)} runs cached, "
          f"running {len(todo)}", flush=True)
    ok = True
    if TIMED_RUN in todo:
        ok &= _run_in_process(TIMED_RUN, {})
    rest = [r for r in todo if r != TIMED_RUN]
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(lambda r: _run_in_process(r, {"OPENBLAS_NUM_THREADS": "1"}), rest))
    ok &= all(results)

    sums = {"new": 0.0, "old": 0.0}
    for variant, seed in RUNS:
        path = cache_path(variant, seed, key)
        if not path.exists():
            print(f"{path.name}: missing")
            continue
        new = json.loads(path.read_text())
        sums["new"] += new["train_seconds"]
        line = f"{path.name}: train_seconds {new['train_seconds']:.0f}"
        old_path = cache_path(variant, seed, old_key) if old_key else None
        if old_path is None or not old_path.exists():
            print(line + "; no earlier file to compare")
            continue
        old = json.loads(old_path.read_text())
        sums["old"] += old["train_seconds"]
        diffs = field_diffs(old, new)
        print(f"{line} (was {old['train_seconds']:.0f}); "
              + (f"{len(diffs)} other fields differ from {old_path.name}:" if diffs
                 else f"every other field equals {old_path.name}"))
        for d in diffs:
            print(f"  {d}")
    print(f"train_seconds sum {sums['new']:.0f} s"
          + (f" (earlier source hash {old_key}: {sums['old']:.0f} s)" if old_key else ""))

    missing = missing_runs(key)
    if delete_old and old_key:
        if missing:
            print(f"kept the files of {old_key}: {len(missing)} new files are missing")
        else:
            old_files = sorted(CACHE_DIR.glob(f"*-{old_key}.json"))
            for p in old_files:
                p.unlink()
            print(f"deleted the {len(old_files)} files of source hash {old_key}")
    return 0 if ok and not missing else 1


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(prog="tests/_benchmark.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="one run, cached; prints its summary")
    run_cmd.add_argument("variant", choices=network.VARIANTS)
    run_cmd.add_argument("seed", type=int)
    refill_cmd = sub.add_parser("refill", help="train every run missing for the sources")
    refill_cmd.add_argument("--delete-old", action="store_true",
                            help="delete the earlier source hash's files once all are refilled")
    sub.add_parser("check", help="exit 1 unless every run is cached for the sources")
    args = parser.parse_args()
    if args.command == "run":
        print(json.dumps(cached_benchmark(args.variant, args.seed), indent=1))
    elif args.command == "refill":
        sys.exit(refill(args.delete_old))
    else:
        sys.exit(check())
