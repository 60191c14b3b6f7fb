"""Workloads: set-up, measured rounds, correctness checks and metrics.

A run sets up ``Sizes.setups`` times (identically), then runs round 0,
which warms caches and whose outputs are checked at the end, then repeats
rounds until ``seconds`` have passed since round 1 began. Every round does
the same operations; round ``i`` draws its training batches and its fresh
dataset from seeds offset by ``i``, so a run's timings cover many distinct
inputs. Round 0's seeds depend on ``--seed`` alone, and the IoU metrics
come from it.

Set-up writes the training dataset and loads it. In ``eval-sweep`` it also
trains the checkpoint that the rounds evaluate (a short FASet run) and a
short JoinT run; the step metrics of ``eval-sweep`` come from these set-up
runs, since its rounds train nothing. The training workloads run both
schedules in every round: ``faset-fc`` evaluates its FASet model and
``joint-gru`` its JoinT model, and the other schedule is a smaller control.
Every round then generates a fresh dataset and runs the eval path on its
test split.
"""

from __future__ import annotations

import dataclasses
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from setfusion import data as sf_data
from setfusion import metrics as sf_metrics
from setfusion import model as sf_model
from setfusion import tensor as sf_tensor
from setfusion import training as sf_training
from setfusion.aggregators import ATTENTION_KINDS

import checks
import reference
from tracing import Tracer, step_clock

SF_MODULES = {"data": sf_data, "metrics": sf_metrics, "model": sf_model,
              "tensor": sf_tensor, "training": sf_training}

STEP_METRICS = {"stage1": "stage1_step_ms", "stage2": "stage2_step_ms", "joint": "joint_step_ms"}
ALL_COUNTS = tuple(range(1, 9))
FRESH_SEED_OFFSET = 1_000_003
ROUND_SEED_STRIDE = 10_007


@dataclasses.dataclass(frozen=True)
class Sizes:
    image_side: int = 16
    grid_side: int = 16
    latent_dim: int = 128
    encoder_hidden: int = 256
    decoder_hidden: int = 512
    batch_size: int = 16
    train_count: int = 512
    test_count: int = 128
    setups: int = 5
    step_cap: int | None = None       # caps every step count of a workload
    predict_samples: int = 16         # timed predicts per round: these x N=1..8
    fresh_counts: tuple = (384, 128)  # eval-sweep round dataset: train, test
    check_samples: int = 4
    march_samples: int = 8


FULL = Sizes()
TINY = Sizes(image_side=8, grid_side=8, latent_dim=16, encoder_hidden=16, decoder_hidden=32,
             batch_size=4, train_count=8, test_count=8, setups=2, step_cap=2,
             predict_samples=2, fresh_counts=(4, 8), check_samples=2, march_samples=2)


class OperationFailed(Exception):
    """An operation of the program raised; it is counted in ``failed``."""


@dataclasses.dataclass
class Setup:
    dir: Path
    train: list
    test: list
    seconds: float
    generate: tuple  # (samples generated, seconds)
    step_ms: dict
    faset: object = None
    faset_ckpt: Path | None = None


class Run:
    def __init__(self, workload: "Workload", seed: int, sizes: Sizes, work: Path):
        s = sizes
        self.workload, self.seed, self.sizes, self.work = workload, seed, s, work
        self.model_cfg = sf_model.ModelConfig(
            image_side=s.image_side, latent_dim=s.latent_dim, encoder_hidden=s.encoder_hidden,
            decoder_hidden=s.decoder_hidden, grid_side=s.grid_side,
            aggregator_kind=workload.kind, seed=seed + 1, max_views=8)
        self.train_cfg = sf_training.TrainConfig(batch_size=s.batch_size, n_mode=workload.n_mode,
                                                 seed=seed + 2)
        self.eval_seed = seed + 3
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []

    def steps(self, counts: tuple) -> tuple:
        cap = self.sizes.step_cap
        return tuple(min(n, cap) for n in counts) if cap else counts

    def meta(self, train_count: int, test_count: int, seed: int):
        return sf_data.DatasetMeta(train_count=train_count, test_count=test_count,
                                   grid_side=self.sizes.grid_side,
                                   image_side=self.sizes.image_side, seed=seed)

    def op(self, count: int, fn, *args, **kwargs):
        """Call one program operation that stands for ``count`` counted ones
        (training steps, predicts or generated samples)."""
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # a failing operation is counted, then ends the round
            self.failed += count
            self.errors.append(traceback.format_exc())
            raise OperationFailed(f"{type(e).__name__}: {e}") from e

    def train(self, fn, params, dataset, cfg, steps: int):
        """One training call of ``steps`` steps -> (report, ms of each step).

        Falls back to the report's mean step time if the step clock's hooks
        were not called once per step."""
        times: list[float] = []
        with step_clock(sf_training, times):
            report = self.op(steps, fn, params, dataset, cfg)
        if len(times) != report.steps:
            times = [report.wallclock_ms / report.steps] * report.steps
        self.failures += checks.all_finite(f"{report.stage} losses", report.losses)
        return report, times

    def train_both(self, train, seed_index: int, counts: tuple, held_out=None):
        """A FASet run (stage 1, stage 2) and a JoinT run from the same
        initial parameters -> ({stage: report}, {stage: step ms}, faset, joint, notes).

        Given ``held_out`` views, ``notes`` also holds what the FASet checks
        need: the parameters before and between the stages, and the
        single-view predictions of ``held_out`` before stage 2."""
        s1, s2, sj = self.steps(counts)
        seed = self.train_cfg.seed + ROUND_SEED_STRIDE * seed_index
        cfg = dataclasses.replace(self.train_cfg, seed=seed, stage1_steps=s1, stage2_steps=s2)
        jcfg = dataclasses.replace(cfg, stage1_steps=sj, stage2_steps=0)
        faset = sf_model.model_init(self.model_cfg)
        notes = {"cfg": cfg, "jcfg": jcfg, "held_out": held_out}
        check = held_out is not None
        if check:
            notes["start"] = arrays(faset)
            notes["att_checksum"] = faset.checksum("att")
        r1, t1 = self.train(sf_training.faset_stage1, faset, train, cfg, s1)
        if check:
            notes["mid"] = arrays(faset)
            notes["single_view"] = [sf_model.predict([v], faset)[0].probs.data for v in held_out]
        r2, t2 = self.train(sf_training.faset_stage2, faset, train, cfg, s2)
        joint = sf_model.model_init(self.model_cfg)
        rj, tj = self.train(sf_training.joint_train, joint, train, jcfg, sj)
        reports = {"stage1": r1, "stage2": r2, "joint": rj}
        return reports, {"stage1": t1, "stage2": t2, "joint": tj}, faset, joint, notes


def arrays(params) -> dict:
    return {name: t.data.copy() for name, _, t in params.named("all")}


def _part(a: dict, att: bool) -> dict:
    return {k: v for k, v in a.items() if k.startswith("att_") == att}


def flat_views(views) -> np.ndarray:
    return np.stack([np.asarray(v).reshape(-1) for v in views])


# --------------------------------------------------------------- set-up

def setup(run: Run, index: int) -> Setup:
    s = run.sizes
    d = run.work / f"setup{index}"
    start = time.perf_counter()
    run.op(s.train_count + s.test_count, sf_data.generate_dataset,
           run.meta(s.train_count, s.test_count, run.seed), d / "data")
    generate_s = time.perf_counter() - start
    train, _ = sf_data.load_dataset(d / "data" / "train.sfds")
    test, _ = sf_data.load_dataset(d / "data" / "test.sfds")
    st = Setup(dir=d, train=train, test=test, seconds=0.0,
               generate=(s.train_count + s.test_count, generate_s), step_ms={})
    if any(run.workload.setup_steps):
        _, st.step_ms, st.faset, joint, _ = run.train_both(train, 0, run.workload.setup_steps)
        st.faset_ckpt = d / "faset.sfck"
        sf_model.save_checkpoint(st.faset, st.faset_ckpt)
        sf_model.save_checkpoint(joint, d / "joint.sfck")
    st.seconds = time.perf_counter() - start
    return st


# ------------------------------------------------------- shared round parts

def eval_pass(run: Run, test_path: Path, ckpt: Path, counts) -> tuple:
    """The ``setfusion eval`` path: load the split, load the checkpoint, sweep."""
    start = time.perf_counter()
    test, _ = sf_data.load_dataset(test_path)
    params = sf_model.load_checkpoint(ckpt, cfg=run.model_cfg)
    cfg = sf_metrics.EvalConfig(view_counts=tuple(counts), seed=run.eval_seed)
    report = run.op(len(counts) * len(test), sf_metrics.eval_sweep, params, test, cfg)
    return time.perf_counter() - start, test, params, report


def predict_pass(run: Run, params, samples, counts) -> tuple[dict, list]:
    """Time one ``predict`` per (sample, N) on the views ``eval_sweep`` picks."""
    preds, times = {}, []
    for sample in samples:
        for n in counts:
            picked = sf_metrics.choose_views(run.eval_seed, sample.sample_id, n, len(sample.views))
            views = [sample.views[i] for i in picked]
            start = time.perf_counter()
            grid, attn = run.op(1, sf_model.predict, views, params)
            times.append((time.perf_counter() - start) * 1000.0)
            preds[(sample.sample_id, n)] = (views, grid.probs.data, attn)
    return preds, times


def eval_checks(run: Run, params, test, report) -> list[str]:
    """The evaluated model against the reference and the aggregator's
    properties, and every reported IoU row against the naive search."""
    kind = run.workload.kind
    counts = [row["n"] for row in report.rows]
    preds, _ = predict_pass(run, params, test, counts)
    fails = checks.eval_rows_match("eval_sweep", report.rows, {
        n: reference.naive_threshold_search([(preds[(x.sample_id, n)][1], x.gt) for x in test])
        for n in counts})
    p = arrays(params)
    for x in test[: run.sizes.check_samples]:
        for n in counts:
            views, probs, attn = preds[(x.sample_id, n)]
            fails += checks.probs_match(f"predict sample {x.sample_id} N={n}", probs,
                                        reference.predict_probs(p, kind, flat_views(views)))
            if kind in ATTENTION_KINDS:
                fails += checks.attention_normalized(f"attention sample {x.sample_id} N={n}",
                                                     attn.scores.data)
        views = list(x.views)
        order = np.random.default_rng([run.seed, x.sample_id]).permutation(len(views))
        if (order == np.arange(len(views))).all():
            order = order[::-1]
        shuffled = [views[i] for i in order]
        original = sf_model.predict(views, params)[0].probs.data
        permuted = sf_model.predict(shuffled, params)[0].probs.data
        if kind in ATTENTION_KINDS:
            if not np.array_equal(original, permuted):
                fails.append(f"predict of sample {x.sample_id} changed under a view permutation")
        else:
            fails += checks.order_sensitive(f"{kind} sample {x.sample_id}", original, permuted,
                                            reference.predict_probs(p, kind, flat_views(shuffled)))
    return fails


def training_checks(run: Run, train, reports: dict, faset, notes: dict) -> list[str]:
    """Step-0 losses against the numpy forward pass, FASet's group isolation,
    and tape gradients against central differences of the reference."""
    kind, cfg, jcfg = run.workload.kind, notes["cfg"], notes["jcfg"]
    start, mid = notes["start"], notes["mid"]
    r1, r2, rj = reports["stage1"], reports["stage2"], reports["joint"]
    b1 = sf_training.sample_minibatch(train, cfg, 0, n_mode="fixed:1")
    fails = checks.loss_matches("stage 1 step-0 loss", r1.losses[0],
                                reference.forward_loss(start, kind, reference.single_view_sets(b1)))
    fails += checks.loss_matches("stage 2 step-0 loss", r2.losses[0], reference.forward_loss(
        mid, kind, sf_training.sample_minibatch(train, cfg, 0)))
    batch = sf_training.sample_minibatch(train, jcfg, 0)
    fails += checks.loss_matches("joint step-0 loss", rj.losses[0],
                                 reference.forward_loss(start, kind, batch))
    fails += checks.arrays_identical("att group across stage 1", _part(start, True), _part(mid, True))
    fails += checks.equal("att checksum across stage 1", r1.att_checksum, notes["att_checksum"])
    fails += checks.arrays_identical("base group across stage 2", _part(mid, False),
                                     _part(arrays(faset), False))
    fails += checks.equal("base checksum across stage 2", r2.base_checksum, r1.base_checksum)
    if kind in ATTENTION_KINDS:  # the single-element identity: stage 2 cannot move N=1
        after = [sf_model.predict([v], faset)[0].probs.data for v in notes["held_out"]]
        if not all(np.array_equal(a, b) for a, b in zip(notes["single_view"], after)):
            fails.append("a single-view prediction changed in stage 2")

    # gradient at the initial parameters: one JoinT step at a zero learning rate
    gparams = sf_model.model_init(run.model_cfg)
    sf_training.joint_train(gparams, train, dataclasses.replace(jcfg, stage1_steps=1,
                                                                learning_rate=0.0))
    fails += checks.arrays_identical("parameters after a zero-rate step", start, arrays(gparams))
    tape, central = {}, {}
    for name, t in gparams.group("all").items():  # each parameter's largest coordinate
        g = t.grad.reshape(start[name].shape)
        idx = np.unravel_index(int(np.argmax(np.abs(g))), g.shape)
        key = f"{name}{list(map(int, idx))}"
        tape[key] = float(g[idx])
        central[key] = reference.central_difference(start, kind, batch, name, idx)
    fails += checks.gradients_match("joint gradient", tape, central)
    return fails


# ----------------------------------------------------------------- rounds

def run_round(run: Run, st: Setup, index: int) -> dict:
    """One round: train (in the training workloads), generate a fresh
    dataset, run the eval path on the workload's model over its test split,
    then time predicts. Round 0 keeps its files for the checks."""
    w, s = run.workload, run.sizes
    d = run.work / ("round0" if index == 0 else "round")
    d.mkdir(parents=True, exist_ok=True)
    res, verify = {}, []
    if any(w.round_steps):
        held_out = [x.views[0] for x in st.test[: s.check_samples]] if index == 0 else None
        reports, step_ms, faset, joint, notes = run.train_both(st.train, index, w.round_steps,
                                                               held_out)
        model, ckpt = (faset if w.main == "faset" else joint), d / "model.sfck"
        sf_model.save_checkpoint(model, ckpt)
        res.update({STEP_METRICS[k]: v for k, v in step_ms.items()})
        verify.append(lambda: training_checks(run, st.train, reports, faset, notes))
    else:
        model, ckpt = st.faset, st.faset_ckpt
    n_train, n_test = s.fresh_counts
    meta = run.meta(n_train, n_test, run.seed + FRESH_SEED_OFFSET + index)
    start = time.perf_counter()
    run.op(n_train + n_test, sf_data.generate_dataset, meta, d / "data")
    generate_s = time.perf_counter() - start
    eval_s, test, loaded, report = eval_pass(run, d / "data" / "test.sfds", ckpt, w.eval_counts)
    _, times = predict_pass(run, loaded, test[: s.predict_samples], ALL_COUNTS)
    res.update({"generate": (n_train + n_test, generate_s), "eval_s": eval_s,
                "predict_ms": times, "rows": report.rows})
    if index == 0:
        verify += [lambda: data_checks(run, model, ckpt, meta, d / "data", loaded, test),
                   lambda: eval_checks(run, loaded, test, report)]
        res["verify"] = lambda: [f for check in verify for f in check()]
    return res


def data_checks(run: Run, model, ckpt: Path, meta, d: Path, loaded, test) -> list[str]:
    """Checkpoint round trip, the dataset as written and read back, and
    its depth images against the naive ray march."""
    roundtrip = run.work / "roundtrip.sfck"
    sf_model.save_checkpoint(loaded, roundtrip)
    fails = checks.bytes_equal("checkpoint save/load round trip",
                               roundtrip.read_bytes(), ckpt.read_bytes())
    fails += checks.arrays_identical("loaded checkpoint vs trained parameters",
                                     arrays(model), arrays(loaded))
    train, _ = sf_data.load_dataset(d / "train.sfds")
    samples = train + test
    fails += checks.equal("dataset sample ids", [x.sample_id for x in samples],
                          list(range(meta.train_count + meta.test_count)))
    for x in samples:
        _, occ = sf_data.make_shape(meta.seed, x.sample_id, meta.grid_side)
        if not (np.array_equal(x.gt, occ.reshape(-1))
                and np.array_equal(x.views, sf_data.render_all_views(occ, meta.image_side))):
            fails.append(f"loaded sample {x.sample_id} differs from what was generated")
        fails += checks.occupancy_in_range(f"sample {x.sample_id}", x.gt)
    stride = max(1, len(samples) // run.sizes.march_samples)
    for x in samples[::stride][: run.sizes.march_samples]:
        fails += checks.depth_matches_march(f"sample {x.sample_id}", x.views,
                                            x.gt.reshape((meta.grid_side,) * 3))
    return fails


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n_mode: str
    setup_steps: tuple  # (FASet stage 1, stage 2, JoinT) steps in each set-up
    round_steps: tuple  # the same, in each round
    main: str           # which model a training round evaluates
    eval_counts: tuple  # the view counts N of the eval path
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("faset-fc", "attsets_fc", "uniform:2:8", (0, 0, 0), (8, 16, 4), "faset", (1, 8),
             "FASet on attsets_fc: stage 1 is Adam-bound over the base group, stage 2 is "
             "backward-bound for a frozen group"),
    Workload("joint-gru", "gru", "uniform:1:8", (0, 0, 0), (4, 8, 10), "joint", (1, 8),
             "JoinT with the GRU: every parameter trained, long per-view tapes, nothing frozen"),
    Workload("eval-sweep", "attsets_fc", "uniform:2:8", (6, 12, 6), (0, 0, 0), "faset", ALL_COUNTS,
             "generate, then the setfusion eval path at N=1..8: forward only, no tape, "
             "no optimizer"),
)}


# ----------------------------------------------------------------- a run

def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(setups: list, first: dict, rounds: list) -> tuple[dict, dict]:
    """End-to-end metrics {name: (value, unit)} and the sample count behind each."""
    m, n = {"setup_s": (_median(x.seconds for x in setups), "s")}, {"setup_s": len(setups)}
    for stage, key in STEP_METRICS.items():
        vals = [t for r in rounds for t in r.get(key, ())] or \
            [t for x in setups for t in x.step_ms[stage]]
        m[key], n[key] = (_median(vals), "ms"), len(vals)
    rows = {row["n"]: row["mean_iou"] for row in first["rows"]}
    m["iou_n1"], m["iou_n8"] = (rows[1], "iou"), (rows[8], "iou")
    times = [t for r in rounds for t in r["predict_ms"]]
    m["predict_ms_p50"] = (float(np.percentile(times, 50)), "ms")
    m["predict_ms_p90"] = (float(np.percentile(times, 90)), "ms")
    n["predict_ms_p50"] = n["predict_ms_p90"] = len(times)
    m["eval_s"], n["eval_s"] = (_median(r["eval_s"] for r in rounds), "s"), len(rounds)
    # samples / seconds, pooled over every call: with ~15 short calls a run, this
    # varies less from run to run than the median of their rates
    gen = [x.generate for x in setups] + [r["generate"] for r in rounds]
    m["generate_samples_per_s"] = (sum(c for c, _ in gen) / sum(t for _, t in gen), "samples/s")
    n["generate_samples_per_s"] = len(gen)
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m, n


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 sizes: Sizes = FULL) -> dict:
    """One benchmark run. Returns the result document; ``work`` is removed.

    A traced run alternates untraced and traced rounds (set-ups are traced),
    reports per-layer metrics from the spans, and the tracing overhead as
    the extra time of its traced rounds over its untraced ones."""
    workload = WORKLOADS[name]
    tracer = Tracer(SF_MODULES) if trace else None
    run = Run(workload, seed, sizes, work)
    try:
        setups, st = [], None
        for i in range(sizes.setups):
            if st:  # only the last set-up's data and files are kept
                shutil.rmtree(st.dir)
            if tracer:
                tracer.install()
            try:
                st = setup(run, i)
            finally:
                if tracer:
                    tracer.uninstall()
            setups.append(dataclasses.replace(st, train=None, test=None, faset=None))
        first = run_round(run, st, 0)

        rounds, durations = [], {False: [], True: []}
        loop_start = time.perf_counter()
        index = 0
        while True:
            index += 1
            traced = tracer is not None and index % 2 == 0
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                rounds.append(run_round(run, st, index))
                durations[traced].append(time.perf_counter() - start)
            except OperationFailed:
                pass
            finally:
                if traced:
                    tracer.uninstall()
            if time.perf_counter() - loop_start >= seconds and (tracer is None or traced):
                break

        # peak memory is read before round 0's checks add their own copies
        if tracer is None:
            metrics, counts = end_to_end(setups, first, rounds)
        else:
            metrics = tracer.layer_metrics()
            overhead = statistics.fmean(durations[True]) / statistics.fmean(durations[False]) - 1
            metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
            counts = {"untraced_rounds": len(durations[False]),
                      "traced_rounds": len(durations[True])}
        run.failures += first["verify"]()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {"setups": len(setups), "rounds": len(rounds), **counts},
        "check_failures": run.failures,
        "errors": run.errors,
        "spans": tracer.dump() if tracer else None,
    }
