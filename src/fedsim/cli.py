"""Command-line front end.

Four subcommands: run (one experiment, JSONL metrics + JSON summary), sweep
(grid over alpha/tau/eta/seed, CSV), verify-bound (generalization-bound and
participation-identity checks, JSON report), consensus-trace (per-step
per-block consensus, CSV + JSON summary). Every output file starts with a
provenance header carrying the config digest, seed, and package version.
Exit codes: 0 success (and, for verify-bound, all checks passed), 1 config
or file error, 2 divergence.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .bounds import verify_participation_identities, verify_theorem1
from .config import (
    ConfigError,
    build_bound_trial_config,
    build_shards,
    canonical_digest,
    identity_checks,
    load_bound_config,
    load_config,
)
from .engine import DivergenceError, RunSpec, comm_closed_form, run_experiment, run_experiments
from .metrics import accuracy, consensus_map, empirical_risk, population_risk_estimate
from .models import RidgeSpec

WORKERS_ENV = "FEDSIM_WORKERS"


def _provenance(digest: str, seed: int) -> dict:
    return {"config_digest": digest, "seed": seed, "version": __version__}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _csv_writer(fh, prov: dict):
    """A CSV writer on fh after the one-line provenance comment."""
    fh.write(
        f"# provenance config_digest={prov['config_digest']} "
        f"seed={prov['seed']} version={prov['version']}\n"
    )
    return csv.writer(fh)


def _can_overlap_risks() -> bool:
    """Whether run should fork its sync-risk helper: 2+ usable CPUs (the engine checks os.fork)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _final_metrics(cfg, shards, pop_source, result) -> dict:
    model, w = cfg.model, cfg.weights
    train = empirical_risk(model, result.final_params, shards, w)
    test = acc = None
    if pop_source is not None:
        test = population_risk_estimate(model, result.final_params, pop_source, w)
        if not isinstance(model, RidgeSpec):  # a GaussianLinear source serves ridge only
            acc = accuracy(model, result.final_params, pop_source.X, pop_source.y)
    return {
        "final_train_risk": train,
        "final_test_risk": test,
        "final_gen_gap": None if test is None else test - train,
        "accuracy": acc,
    }


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    if args.cadence is not None and args.cadence < 0:
        raise ConfigError("--cadence must be >= 0.")
    out_dir = args.out if args.out is not None else cfg.output
    os.makedirs(out_dir, exist_ok=True)
    prov = _provenance(cfg.digest(), seed)

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    started = time.monotonic()
    shards, pop_source = build_shards(cfg, seed)
    metrics_fh = None

    def sink(r, s, rec):
        # opened at the first record, which every round emits: by then the
        # set-up checks, the label check among them, have passed, so a set-up
        # failure writes no metrics.jsonl
        nonlocal metrics_fh
        if metrics_fh is None:
            metrics_fh = open(metrics_path, "w", encoding="utf-8")
            metrics_fh.write(_dump({"provenance": prov}) + "\n")
        metrics_fh.write(_dump(rec.to_row()) + "\n")

    try:
        result = run_experiment(
            cfg.algorithm, cfg.model, shards, cfg.schedule, seed=seed, pop_source=pop_source,
            on_record=sink, overlap_risks=_can_overlap_risks(),
            **cfg.run_options(cadence=args.cadence),
        )
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    elapsed = time.monotonic() - started

    summary = {"provenance": prov, "algorithm": cfg.algorithm, "seed": seed,
               "steps": result.steps, "rounds": cfg.schedule.rounds}
    summary.update(_final_metrics(cfg, shards, pop_source, result))
    summary["final_consensus"] = consensus_map(
        np.stack([p.values for p in result.client_params]), result.layout
    )
    summary["comm"] = {
        "uploaded_per_client": [int(x) for x in result.comm.uploaded],
        "downloaded_per_client": [int(x) for x in result.comm.downloaded],
        "total_uploaded": result.comm.total_uploaded,
        "closed_form_per_client_per_direction": comm_closed_form(cfg.schedule, result.layout),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"run finished in {elapsed:.2f}s; outputs in {out_dir}", file=sys.stderr)
    print(f"wrote {metrics_path} and {os.path.join(out_dir, 'summary.json')}")
    return 0


GRID_KEYS = ("alpha", "tau", "eta", "seed")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def parse_grid(spec: str) -> list[tuple[str, list]]:
    """Parse "alpha=1,5;tau=10;eta=0.1,0.2;seed=1,2,3" into ordered axes."""
    axes = []
    seen = set()
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid entry {part!r} is not key=v1,v2,...")
        key, _, vals = part.partition("=")
        key = key.strip()
        if key not in GRID_KEYS:
            raise ConfigError(f"grid key must be one of {GRID_KEYS}, got {key!r}.")
        if key in seen:
            raise ConfigError(f"grid key {key!r} given twice.")
        seen.add(key)
        parsed = []
        for v in vals.split(","):
            v = v.strip()
            try:
                parsed.append(float(v) if key == "eta" else int(v))
            except ValueError as exc:
                kind = "an integer" if _is_number(v) else "a number"
                raise ConfigError(f"grid value {v!r} for {key!r} is not {kind}.") from exc
        if not parsed:
            raise ConfigError(f"grid key {key!r} has no values.")
        axes.append((key, parsed))
    if not axes:
        raise ConfigError("empty grid.")
    return axes


def _seed_stack(cfg, seeds) -> list[dict]:
    """The final metrics of each seed, from one stack of the seeds' runs."""
    data = [build_shards(cfg, seed) for seed in seeds]
    results = run_experiments(
        cfg.algorithm,
        cfg.model,
        cfg.schedule,
        [RunSpec(shards, seed, pop_source) for seed, (shards, pop_source) in zip(seeds, data)],
        **cfg.run_options(cadence=0),
    )
    return [
        _final_metrics(cfg, shards, pop_source, result)
        for (shards, pop_source), result in zip(data, results)
    ]


def _point_label(schedule: dict) -> str:
    """How a sweep's error message names a grid point, from its schedule values."""
    return "alpha={alpha} tau={tau} eta={eta!r}".format_map(schedule)


def _sweep_point(cfg) -> list[dict]:
    """The final metrics of each seed of a grid point; module-level so workers can pickle it.

    The seeds step together in one stack. A one-seed point, or one whose
    stack raised anything, runs each seed as a one-seed stack instead, so a
    failing point exits as its first failing seed alone does, with the point
    and seed in the message.
    """
    if len(cfg.seeds) > 1:
        try:
            return _seed_stack(cfg, cfg.seeds)
        except Exception:
            # the one-seed stacks below raise the error to report, or recover
            # from one that only the whole stack met, such as a larger
            # allocation failing
            pass
    finals = []
    for seed in cfg.seeds:
        point = f"{_point_label(vars(cfg.schedule))} seed={seed}"
        try:
            finals += _seed_stack(cfg, [seed])
        except DivergenceError as exc:
            raise DivergenceError(f"{point}: {exc}", exc.client) from exc
        except ValueError as exc:  # a set-up check on the data: shard size or labels; still exit 1
            raise ValueError(f"{point}: {exc}") from exc
    return finals


def _mean_std(values) -> tuple[float | None, float | None]:
    if any(v is None for v in values):
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    mean = float(np.mean(arr))
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}.") from None


def cmd_sweep(args) -> int:
    workers = _workers()
    cfg = load_config(args.config)
    base_seeds = [args.seed] if args.seed is not None else cfg.seeds
    axes = parse_grid(args.grid)
    out_dir = args.out if args.out is not None else cfg.output
    os.makedirs(out_dir, exist_ok=True)

    # every point is validated, the engine's set-up rules included, before any trains
    points = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        overrides = dict(zip((k for k, _ in axes), combo))
        seeds = [overrides.pop("seed")] if "seed" in overrides else base_seeds
        try:
            points.append(cfg.point(seeds, **overrides))
        except ConfigError as exc:
            label = _point_label(dict(vars(cfg.schedule), **overrides))
            raise ConfigError(f"{label}: {exc}") from exc

    # a fork pool starts all its processes at once: no more than there are points
    workers = min(workers, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, points))
    else:
        results = [_sweep_point(p) for p in points]

    sweep_path = os.path.join(out_dir, "sweep.csv")
    prov = _provenance(cfg.digest(), base_seeds[0])
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv_writer(fh, prov)
        writer.writerow(
            [
                "alpha", "tau", "eta", "seeds", "n_seeds",
                "final_train_risk_mean", "final_train_risk_std",
                "final_test_risk_mean", "final_test_risk_std",
                "accuracy_mean", "accuracy_std",
                "comm_per_client_per_direction", "steps",
            ]
        )
        for point, finals in zip(points, results):
            sched = point.schedule
            tr_m, tr_s = _mean_std([f["final_train_risk"] for f in finals])
            te_m, te_s = _mean_std([f["final_test_risk"] for f in finals])
            ac_m, ac_s = _mean_std([f["accuracy"] for f in finals])
            writer.writerow(
                [
                    sched.alpha, sched.tau, repr(sched.eta),
                    ";".join(str(s) for s in point.seeds), len(point.seeds),
                    _cell(tr_m), _cell(tr_s), _cell(te_m), _cell(te_s),
                    _cell(ac_m), _cell(ac_s),
                    comm_closed_form(sched, point.layout), sched.total_steps,
                ]
            )
    print(f"wrote {sweep_path}")
    return 0


def _cell(v) -> str:
    return "" if v is None else repr(v)


def cmd_verify_bound(args) -> int:
    canonical = load_bound_config(args.config)
    if args.seed is not None:
        canonical = dict(canonical, seed=args.seed)
    trial_cfg = build_bound_trial_config(canonical)
    out_dir = args.out if args.out is not None else "fedsim_out"
    os.makedirs(out_dir, exist_ok=True)

    report = verify_theorem1(trial_cfg)

    identity_reports = None
    all_passed = report.passed
    if args.identities:
        ident = identity_checks(canonical)
        clients = trial_cfg.num_clients
        identity_reports = []
        for khat in ident["num_sampled"]:
            for scheme in ("with_replacement", "without_replacement"):
                if scheme == "without_replacement" and khat > clients:
                    continue
                rep = verify_participation_identities(
                    clients, khat, scheme, ident["draws"], trial_cfg.seed,
                    weights=trial_cfg.weights,
                )
                identity_reports.append(rep.to_json_dict())
                all_passed = all_passed and rep.passed

    doc = {
        "provenance": _provenance(canonical_digest(canonical), trial_cfg.seed),
        "report": report.to_json_dict(),
        "identity_reports": identity_reports,
    }
    path = os.path.join(out_dir, "bound_report.json")
    _write_json(path, doc)

    print(
        f"bound check: lhs={report.lhs:.6g} rhs={report.rhs:.6g} "
        f"slack={report.slack:.6g} ({'PASS' if report.passed else 'FAIL'})"
    )
    if identity_reports is not None:
        for rep in identity_reports:
            print(
                f"identities {rep['scheme']} num_sampled={rep['num_sampled']}: "
                f"{'PASS' if rep['passed'] else 'FAIL'}"
            )
    print(f"wrote {path}")
    return 0 if all_passed else 1


def cmd_consensus_trace(args) -> int:
    cfg = load_config(args.config)
    if len(cfg.layout.blocks) < 2:
        raise ConfigError("consensus-trace needs a model with at least 2 blocks.")
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    cadence = args.cadence if args.cadence is not None else 1
    if cadence < 1:
        raise ConfigError("consensus-trace needs a cadence >= 1.")
    out_dir = args.out if args.out is not None else cfg.output
    os.makedirs(out_dir, exist_ok=True)
    prov = _provenance(cfg.digest(), seed)

    shards, pop_source = build_shards(cfg, seed)
    result = run_experiment(
        cfg.algorithm, cfg.model, shards, cfg.schedule, seed=seed, pop_source=pop_source,
        **cfg.run_options(cadence=cadence, risks_at_sync=False),
    )

    trace_path = os.path.join(out_dir, "consensus.csv")
    block_names = [b.name for b in result.layout.blocks]
    sums = {name: 0.0 for name in block_names}
    with open(trace_path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv_writer(fh, prov)
        writer.writerow(["round", "step", "block", "consensus"])
        for rec in result.records:
            for name in block_names:
                writer.writerow([rec.round, rec.step, name, repr(rec.consensus[name])])
                sums[name] += rec.consensus[name]
    n_rows = max(len(result.records), 1)
    summary = {
        "provenance": prov,
        "steps_recorded": len(result.records),
        "time_averaged_consensus": {name: sums[name] / n_rows for name in block_names},
    }
    summary_path = os.path.join(out_dir, "consensus_summary.json")
    _write_json(summary_path, summary)
    print(f"wrote {trace_path} and {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-learning simulator and verification lab.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment; JSONL metrics + JSON summary")
    run_p.add_argument("config", help="experiment config (JSON)")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--out", help="output directory (default: config output)")
    run_p.add_argument("--cadence", type=int, help="consensus recording cadence in steps")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="grid sweep over alpha/tau/eta/seed; CSV")
    sweep_p.add_argument("config", help="experiment config (JSON)")
    sweep_p.add_argument("--grid", required=True, help='e.g. "alpha=1,5,10;eta=0.05,0.1"')
    sweep_p.add_argument("--seed", type=int, help="override the config seed list")
    sweep_p.add_argument("--out", help="output directory (default: config output)")
    sweep_p.set_defaults(func=cmd_sweep)

    vb_p = sub.add_parser("verify-bound", help="Monte Carlo bound verification; JSON report")
    vb_p.add_argument("config", help="bound config (JSON)")
    vb_p.add_argument("--seed", type=int, help="override the config seed")
    vb_p.add_argument("--out", help="output directory (default: fedsim_out)")
    vb_p.add_argument(
        "--identities",
        action="store_true",
        help="also check the participation reweighting identities",
    )
    vb_p.set_defaults(func=cmd_verify_bound)

    ct_p = sub.add_parser(
        "consensus-trace", help="per-step per-block consensus distances; CSV + summary"
    )
    ct_p.add_argument("config", help="experiment config (JSON)")
    ct_p.add_argument("--seed", type=int, help="override the config seed")
    ct_p.add_argument("--out", help="output directory (default: config output)")
    ct_p.add_argument("--cadence", type=int, help="recording cadence in steps (default 1)")
    ct_p.set_defaults(func=cmd_consensus_trace)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:  # every command takes --seed
            raise ConfigError("--seed must be >= 0.")
        return args.func(args)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an unwritable --out, or a data file that cannot be read
        print(f"file error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
