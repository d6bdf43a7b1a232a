"""Workload mixes and the closed loop that runs them round by round.

Every workload runs the whole adapter lifecycle in each round (training,
serving, the hub path), so every run can report every end-to-end metric;
the mixes differ in how much of each round each phase gets. A round always
attempts the same number of operations, so the share of failed operations
does not depend on how many rounds fit into a run.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from adapterkit import cli, hub, package_io, training
from adapterkit.errors import AdapterKitError, AmbiguousQueryError, HubLookupError
from adapterkit.manager import AdapterModel

import checks
import fixture
import reference

PRESETS = ("pfeiffer", "houlsby", "bapna")
# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MiB",
    "train_adapter_seqs_per_s": "seq/s", "train_full_seqs_per_s": "seq/s",
    "serve_seqs_per_s": "seq/s", "serve_single_ms": "ms",
    "pkg_save_mb_per_s": "MB/s", "pkg_load_mb_per_s": "MB/s",
    "hub_install_cold_ms": "ms", "hub_install_warm_ms": "ms", "index_cards_per_s": "card/s",
}

# serve requests of one kind (batched or single) take the targets in turn;
# of the requests of one kind and target, every LOGIT_SAMPLE_EVERY-th has its
# program logits compared, not only its labels. 7 is coprime to
# SINGLE_BUCKETS, so every length bucket of every target gets compared.
LOGIT_SAMPLE_EVERY = 7
# single requests of one target take their length from 1-8, 9-16, 17-24 and 25-32 in turn
SINGLE_BUCKETS = 4


@dataclass(frozen=True)
class Mix:
    """Operations in one round.

    Each timing is taken over the variants of its operation (see
    ``over_variants``), so every round runs every variant: multiples of the
    four serve targets, of the sixteen target and length pairs of single
    requests and of the five archives. A best sample is only as steady as
    the number of samples behind it, so the short operations, which cost a
    round little, run several times per variant.
    """

    train_passes: int  # passes over TRAIN_CALLS, each call TRAIN_STEPS steps on the round's task
    accuracy: bool    # one evaluated copy-first-label call of checks.COPY_ACCURACY_STEPS steps
    batched: int      # serve requests of fixture.BATCH sequences
    single: int       # single-sequence serve requests
    packages: int     # reference package saves, and as many loads
    packs: int        # archive packs
    indexes: int      # index builds (ingest, build, parse)
    cards: int        # cards per index build
    resolves: int
    installs: int     # cold installs, and as many warm ones
    malformed: bool   # the malformed-input round


# (mode, preset) of the training calls of every pass, all on the round's task
TRAIN_CALLS = [("adapter_only", pre) for pre in PRESETS] + [("full_finetune", None)]
# steps per timed training call: the fewest that move an adapter (the head
# starts at zero, so the first step gives the adapter no gradient). A call
# lasts about a tenth of a second, long enough that few calls escape the
# machine's contended phases, so the rates are taken only from these short
# calls and each run makes many of them; the evaluated calls are not timed.
TRAIN_STEPS = 2

MIXES = {
    # adapter calls share one frozen backbone and their task's 256 examples,
    # so every example comes back every 16 steps on its task
    "train": Mix(train_passes=4, accuracy=True, batched=8, single=32, packages=4, packs=1,
                 indexes=4, cards=25, resolves=2, installs=15, malformed=False),
    "serve": Mix(train_passes=2, accuracy=False, batched=16, single=64, packages=4, packs=1,
                 indexes=4, cards=25, resolves=2, installs=15, malformed=False),
    "hub": Mix(train_passes=2, accuracy=False, batched=8, single=32, packages=4, packs=2,
               indexes=1, cards=200, resolves=8, installs=25, malformed=True),
}


def _quiet_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Runner:
    def __init__(self, fx, mix, seed, tracer):
        self.fx, self.mix, self.tracer = fx, mix, tracer
        self.samples = defaultdict(lambda: defaultdict(list))  # metric -> variant -> samples
        self.index_parts = defaultdict(list)  # part of an index cycle -> seconds
        self.counts = Counter()           # denominators of the per-layer metrics
        self.attempted = self.failed = 0
        self.problems = []
        self.errors = []
        self.malformed_failures = Counter()
        train_ss, serve_ss, index_ss = np.random.SeedSequence([seed, 1]).spawn(3)
        self.train_seeds = np.random.default_rng(train_ss)
        self.requests = np.random.default_rng(serve_ss)
        self.shuffles = np.random.default_rng(index_ss)
        self.seen = set()
        self.served = Counter()  # requests served so far, by kind (batched or not)
        self.fresh_checked = False

    # -- bookkeeping -------------------------------------------------------

    def attempt(self, label, ops, fn):
        """Run one operation group; an exception fails its operations."""
        self.attempted += ops
        try:
            fn()
        except Exception as exc:  # counted and reported, the run goes on
            self.failed += ops
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")

    def check(self, problems):
        self.problems.extend(problems)

    def timed(self, name, fn):
        with self.tracer.span(name):
            t0 = perf_counter()
            out = fn()
            return out, perf_counter() - t0

    # -- one round ---------------------------------------------------------

    def round(self, r):
        """Every operation of the mix once. Each kind of operation is spread
        evenly through the round instead of running in one burst: the
        machine's contended phases come and go, and a kind whose samples
        all fall in a few bursts can miss every quiet moment of a run."""
        mix = self.mix
        task = training.TASKS[r % len(training.TASKS)]
        archives = list(self.fx.archives)

        def train(i):
            mode, pre = TRAIN_CALLS[i % len(TRAIN_CALLS)]
            self.tracer.rid = f"r{r}.train{i}.{pre or 'full'}"
            self.attempt(self.tracer.rid, TRAIN_STEPS,
                         lambda: self.train(mode, pre, task, TRAIN_STEPS, evaluate=False))

        def evaluated(_):
            # the calls take turns, so every run of four rounds or more evaluates each
            mode, pre = TRAIN_CALLS[r % len(TRAIN_CALLS)]
            self.tracer.rid = f"r{r}.train-eval.{pre or 'full'}"
            self.attempt(self.tracer.rid, checks.COPY_ACCURACY_STEPS, lambda: self.train(
                mode, pre, checks.COPY_TASK, checks.COPY_ACCURACY_STEPS, evaluate=True))

        def serve(batched):
            def run(i):
                self.tracer.rid = f"r{r}.serve{i}.{'batched' if batched else 'single'}"
                self.attempt(self.tracer.rid, 1, lambda: self.serve(batched))
            return run

        def package(i):
            self.tracer.rid = f"r{r}.package{i}"
            self.attempt(self.tracer.rid + ".save", 1, self.pkg_save)
            self.attempt(self.tracer.rid + ".load", 1, self.pkg_load)

        def pack(i):
            self.tracer.rid = f"r{r}.pack{i}"
            self.attempt(self.tracer.rid, 1, lambda: self.pack(r * mix.packs + i))

        def index(i):
            self.tracer.rid = f"r{r}.index{i}"
            self.attempt(self.tracer.rid, 1, self.index)

        def resolve(i):
            self.tracer.rid = f"r{r}.resolve{i}"
            query = self.fx.queries[(r * mix.resolves + i) % len(self.fx.queries)]
            self.attempt(self.tracer.rid, 1, lambda: self.resolve(query))

        def install(i):
            name = archives[(r * mix.installs + i) % len(archives)]
            for cold in (True, False):
                self.tracer.rid = f"r{r}.install{i}.{'cold' if cold else 'warm'}"
                self.attempt(self.tracer.rid, 1, lambda: self.install(name, cold))

        def validate(_):
            self.tracer.rid = f"r{r}.validate"
            self.attempt(self.tracer.rid, 1, self.validate)

        def malformed(_):
            for kind, lib_call, argv in self.fx.malformed:
                self.tracer.rid = f"r{r}.malformed.{kind}"
                self.attempted += 1
                if not self.malformed(lib_call, argv):
                    self.failed += 1
                    self.malformed_failures[kind] += 1

        kinds = [(mix.train_passes * len(TRAIN_CALLS), train), (int(mix.accuracy), evaluated),
                 (mix.batched, serve(True)), (mix.single, serve(False)), (mix.packages, package),
                 (mix.packs, pack), (mix.indexes, index), (mix.resolves, resolve),
                 (mix.installs, install), (1, validate), (int(mix.malformed), malformed)]
        # the i-th of a kind's n operations runs at (i + 1/2) / n of the way through the round
        schedule = sorted(((i + 0.5) / n, k, i) for k, (n, _) in enumerate(kinds) for i in range(n))
        for _, k, i in schedule:
            kinds[k][1](i)
        self.tracer.rid = None

    # -- training ------------------------------------------------------------

    def train(self, mode, pre, task, steps, evaluate):
        train_x, train_y, dev_x, dev_y = self.fx.tasks[task]
        seed = int(self.train_seeds.integers(2**31))
        with self.tracer.paused():
            # adapters train on the shared frozen backbone; full fine-tuning gets its own copy
            weights = self.fx.train_backbone if pre else None
            model = AdapterModel(self.fx.config, weights=weights, seed=self.fx.train_seed)
            model.add_head(task, 2)
            if pre:
                model.add_adapter("adapter", config=pre, seed=seed)
            base0 = model.digest_base()
            adapter0 = model.digest_adapter("adapter") if pre else None
        config = training.TrainConfig(mode=mode, seed=seed, max_steps=steps)
        result, dt = self.timed("bench.train", lambda: training.run_training(
            model, train_x, train_y, config, adapter_name="adapter" if pre else None))
        seqs = config.batch_size * config.max_steps
        if not evaluate:
            metric = "train_adapter_seqs_per_s" if pre else "train_full_seqs_per_s"
            self.samples[metric][pre].append(seqs / dt)
        self.counts.update(seqs=seqs, trained_seqs=seqs, steps=config.max_steps)
        with self.tracer.paused():
            accuracy = training.evaluate(model, dev_x, dev_y)["accuracy"] if evaluate else None
            self.check(checks.check_training(
                f"{mode}/{pre or 'full'}/{task}", mode, result.losses, config.max_steps, base0,
                model.digest_base(), adapter0, model.digest_adapter("adapter") if pre else None,
                accuracy))

    # -- serving -------------------------------------------------------------

    def fresh_sequence(self, n):
        """A sequence of ``n`` tokens never served before in this run; a length whose
        short pool is used up (there are only 128 one-token sequences) moves up by one."""
        for attempt in range(1, 10_000):
            seq = tuple(int(t) for t in self.requests.integers(0, self.fx.config.vocab_size, size=n))
            if seq not in self.seen:
                self.seen.add(seq)
                return list(seq)
            if attempt % 64 == 0 and n < fixture.MAX_LEN:
                n += 1
        raise RuntimeError("no fresh sequence left")

    def serve(self, batched):
        fx = self.fx
        targets = list(fixture.SERVE_TARGETS)
        n = self.served[batched]
        self.served[batched] += 1
        target = targets[n % len(targets)]
        k = n // len(targets)  # index of this request among those of its kind and target
        stack, head = fixture.SERVE_TARGETS[target]
        if batched:
            # one length from each pair 1-2, 3-4, ..., 31-32, so every batch carries about the same work
            lengths = 2 * np.arange(fixture.BATCH) + 1 + self.requests.integers(0, 2, size=fixture.BATCH)
            seqs = [self.fresh_sequence(int(length)) for length in self.requests.permutation(lengths)]
            variant = target
        else:
            width = fixture.MAX_LEN // SINGLE_BUCKETS
            bucket = k % SINGLE_BUCKETS
            seqs = [self.fresh_sequence(bucket * width + 1 + int(self.requests.integers(width)))]
            variant = target, bucket

        def request():
            fx.consumer.set_active_adapters(stack)
            return fx.consumer.predict(seqs, head=head)

        labels, dt = self.timed("bench.serve", request)
        if batched:
            self.samples["serve_seqs_per_s"][variant].append(len(seqs) / dt)
        else:
            self.samples["serve_single_ms"][variant].append(dt * 1e3)
        self.counts.update(seqs=len(seqs), served_seqs=len(seqs))
        with self.tracer.paused():
            ref = [reference.logits(fx.config, fx.base, fx.hooks[target], fx.heads[head], s) for s in seqs]
            self.check(checks.check_labels(f"serve/{target}", labels, ref))
            if k % LOGIT_SAMPLE_EVERY == 0:
                self.check(checks.check_logits(f"serve/{target}", fx.consumer.batch_logits(seqs, head).data,
                                               np.array(ref)))
            if not self.fresh_checked:
                self.fresh_checked = True
                self.check_fresh_adapter(stack, head, seqs)

    def check_fresh_adapter(self, stack, head, seqs):
        """A freshly added adapter leaves the logits bitwise unchanged."""
        model = self.fx.consumer
        before = model.batch_logits(seqs, head).data
        model.add_adapter("fresh", config="pfeiffer")
        model.set_active_adapters(stack + ["fresh"])
        after = model.batch_logits(seqs, head).data
        model.delete_adapter("fresh")
        if not np.array_equal(before, after):
            self.problems.append("serve: a fresh adapter changed the logits")

    # -- hub -----------------------------------------------------------------

    def pkg_save(self):
        fx = self.fx
        digest, dt = self.timed("bench.pkg_save", lambda: package_io.save_adapter_package(
            fx.ref_path, fixture.REF_CONFIG, fx.ref_entry))
        size = fx.ref_path.stat().st_size
        self.samples["pkg_save_mb_per_s"][None].append(size / 1e6 / dt)
        with self.tracer.paused():
            self.check(checks.check_saved_digest("package save", digest, fx.ref_path))

    def pkg_load(self):
        fx = self.fx
        size = fx.ref_path.stat().st_size
        pkg, dt = self.timed("bench.pkg_load", lambda: package_io.load_adapter_package(fx.ref_path))
        self.samples["pkg_load_mb_per_s"][None].append(size / 1e6 / dt)
        self.counts.update(loaded_bytes=size)
        with self.tracer.paused():
            self.check(checks.check_loaded_package("package load", pkg, fx.ref_source, fixture.REF_PARAMS))

    def pack(self, i):
        card, zip_path, pkg_path, meta = list(self.fx.archives.values())[i % len(self.fx.archives)]
        digest, _ = self.timed("bench.pack", lambda: package_io.pack_archive(zip_path, pkg_path, meta))
        with self.tracer.paused():
            self.check(checks.check_saved_digest("pack", digest, zip_path))
            if digest != card["sha256"]:
                self.problems.append(f"pack: archive of {card['adapter_id']} is not deterministic")

    def index(self):
        order = self.shuffles.permutation(self.mix.cards)
        parts = self.index_parts

        def cycle():
            ingested = []
            for i in order:
                t0 = perf_counter()
                ingested.append(hub.ingest_metadata(self.fx.card_texts[i]))
                parts[f"ingest{i}"].append(perf_counter() - t0)
            t0 = perf_counter()
            text = hub.build_index(ingested)
            t1 = perf_counter()
            entries = hub.parse_index(text)
            parts["build"].append(t1 - t0)
            parts["parse"].append(perf_counter() - t1)
            return text, entries

        (text, entries), dt = self.timed("bench.index", cycle)
        self.samples["index_cards_per_s"][None].append(len(order) / dt)
        with self.tracer.paused():
            self.check(checks.check_index("index", text, self.fx.index_text))
            if [e.to_dict() for e in entries] != [e.to_dict() for e in self.fx.entries]:
                self.problems.append("index: parsed entries differ from the ingested cards")

    def resolve(self, query):
        fx = self.fx
        model_hash = fx.config.config_hash()

        def lookup():
            try:
                return ("entry", hub.resolve(fx.entries, query, model_config_hash=model_hash).adapter_id)
            except AmbiguousQueryError as exc:
                return ("ambiguous", tuple(sorted(e.adapter_id for e in exc.candidates)))
            except HubLookupError:
                return ("missing",)

        outcome, _ = self.timed("bench.resolve", lookup)
        with self.tracer.paused():
            self.check(checks.check_resolution(f"resolve {query!r}", outcome,
                                               checks.expected_resolution(fx.cards, query, model_hash)))

    def install(self, name, cold):
        fx = self.fx
        card = fx.archives[name][0]
        if cold:
            (fx.cache / f"{card['sha256']}.zip").unlink(missing_ok=True)
        (installed, _, downloaded), dt = self.timed("bench.install", lambda: hub.install_from_hub(
            fx.installer, fx.entries, card["adapter_id"], cache_dir=fx.cache, rename="installed"))
        self.samples["hub_install_cold_ms" if cold else "hub_install_warm_ms"][name].append(dt * 1e3)
        with self.tracer.paused():
            self.check(checks.check_install(f"install {name}", downloaded, cold,
                                            fx.installer.digest_adapter(installed), fx.digests[name]))
            fx.installer.delete_adapter(installed)

    def validate(self):
        fx = self.fx
        with self.tracer.span("cli.validate"):
            code, out = _quiet_cli(["validate", "--package", str(fx.packages["pfeiffer"]),
                                    "--checkpoint", str(fx.checkpoint)])
        expected = sum(int(np.prod(s)) for _, s in fixture.adapter_shapes(fx.config, "pfeiffer"))
        if code != 0 or json.loads(out)["param_count"] != expected:
            self.problems.append(f"validate: exit {code}, output {out.strip()[:120]}")

    def malformed(self, lib_call, argv):
        """Success: the library raises an AdapterKitError subclass and the command exits 2."""
        with self.tracer.span("bench.malformed"):
            try:
                lib_call()
                lib_ok = False
            except AdapterKitError:
                lib_ok = True
            except Exception:  # a bare codec or type error is the failure being counted
                lib_ok = False
        with self.tracer.span(f"cli.{argv[0]}"):
            try:
                code, _ = _quiet_cli(argv)
            except Exception:  # the command died with a traceback
                code = None
        return lib_ok and code == 2


def run_rounds(runner, seconds, first=0, count=None, between=None):
    """Whole rounds until ``seconds`` have passed (or exactly ``count`` rounds).

    ``between(elapsed)`` runs after each round.
    """
    t0 = perf_counter()
    r = first
    while (perf_counter() - t0 < seconds) if count is None else (r < first + count):
        runner.round(r)
        r += 1
        if between is not None:
            between(perf_counter() - t0)
    return r - first, perf_counter() - t0


def best(samples, higher_is_better):
    """The best sample of a run: the highest rate or the lowest latency.

    The machine alternates between uncontended and contended phases that
    last from seconds to minutes, and slows everything by up to 1.7x in the
    contended ones. A run's median lands in either phase depending on how
    much of the run was contended; its best sample comes from the
    uncontended phase, which nearly every run touches.
    """
    return max(samples) if higher_is_better else min(samples)


def over_variants(variants, higher_is_better):
    """One figure over every variant of an operation (preset, serve target,
    length bucket, archive), so that each counts however cheap it is: the
    best sample of each variant, then for rates their harmonic mean (the
    rate of running every variant once at its best) and for latencies
    their arithmetic mean."""
    bests = [best(samples, higher_is_better) for samples in variants.values()]
    if higher_is_better:
        return len(bests) / sum(1.0 / b for b in bests)
    return statistics.fmean(bests)


def median_and_tail(values):
    """Median, and the highest percentile with at least ten samples beyond it (None under 40 samples)."""
    values = sorted(values)
    med = statistics.median(values)
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return med, pct, values[int(np.ceil(len(values) * pct / 100)) - 1]
    return med, None, None


def report_errors(runner, limit=5):
    for line in runner.errors[:limit] + runner.problems[:limit]:
        print(f"  {line}", file=sys.stderr)


def end_to_end(runner, setup_times):
    """Every end-to-end metric of an untraced run, with its unit."""
    values = {name: over_variants(variants, name.endswith("_per_s"))
              for name, variants in runner.samples.items()}
    # A 200-card index cycle lasts over a tenth of a second, long enough that
    # few whole cycles escape the contended phases; its parts (each card's
    # ingest, the build, the parse) are short, so each is taken at its best.
    values["index_cards_per_s"] = runner.mix.cards / sum(best(t, False) for t in runner.index_parts.values())
    values["setup_s"] = best(setup_times, higher_is_better=False)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
