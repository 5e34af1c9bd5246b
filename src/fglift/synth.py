"""Synthetic cohort-structured instances and the evaluation protocol.

Instances are hub-and-cohort graphs: one central 4-valued hub RV with a
unary prior, plus 3-5 cohorts of structurally identical individuals. Each
individual owns a Boolean core RV tied to the hub, and its cohort's shape
optionally adds a 3-valued mode RV, Boolean leaf RVs, and a unary factor
on the core. All individuals of a cohort share one potential table per
factor role, and cohorts get distinct core degrees, so colour passing
groups each cohort's factors exactly. One cohort is *dominant*: its
individuals are sized to take up proportion ``p`` of all RVs, within one
node whenever the integer packing admits it; the search widens its
tolerance only after exhausting every cohort layout at the tighter one.

Making factors unknown ("stripping") removes tables, never structure, and
keeps at least one known factor in every (cohort, role) class, so every
unknown factor retains a structurally indistinguishable known donor with
the identical table. Transfer therefore reconstructs the ground truth
bit-exactly on these instances; divergences measured downstream are zero
by construction, not by tolerance.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GenerationInfeasible
from .inference import compression_ratio, kld, marginals
from .model import BOOL_RANGE, Factor, FactorGraph, RandomVariable, RangeSpec
from .tables import PotentialTable
from .transfer import complete_and_lift

HUB_RANGE = RangeSpec(("h0", "h1", "h2", "h3"))
MODE_RANGE = RangeSpec(("m0", "m1", "m2"))

_STANDARD_P = (0.2, 0.3, 0.5, 0.7, 0.9)
_MAX_LEAVES = 5


@dataclass(frozen=True)
class _CohortShape:
    mode: bool
    leaves: int
    unary: bool

    @property
    def degree(self) -> int:
        """Factors per core RV; doubles as the per-individual factor count."""
        return 1 + int(self.mode) + self.leaves + int(self.unary)

    @property
    def rv_cost(self) -> int:
        return 1 + int(self.mode) + self.leaves


_SHAPES_BY_DEGREE: dict[int, tuple[_CohortShape, ...]] = {}
for _m in (False, True):
    for _u in (False, True):
        for _l in range(_MAX_LEAVES + 1):
            _s = _CohortShape(_m, _l, _u)
            _SHAPES_BY_DEGREE.setdefault(_s.degree, ())
            _SHAPES_BY_DEGREE[_s.degree] += (_s,)
_MAX_DEGREE = max(_SHAPES_BY_DEGREE)


@dataclass(frozen=True)
class ExperimentConfig:
    """One synthetic instance's parameters.

    ``d`` scales the graph (2d to 3d RVs); ``p`` is the dominant cohort's
    RV proportion; ``unknown_fraction`` the share of factors stripped.
    ``standard_grids`` restricts d and p to the benchmark sweep grids; free
    mode accepts any d >= 1, any p in (0, 1), and unknown_fraction == 0 as
    an all-known sanity setting.
    """

    d: int
    p: float
    unknown_fraction: float
    cohorts: int
    queries_per_instance: int
    theta: float
    seed: int
    standard_grids: bool = True

    def __post_init__(self) -> None:
        if self.standard_grids:
            if not 2 <= self.d <= 256:
                raise ValueError(f"standard grids need 2 <= d <= 256, got {self.d}")
            if self.p not in _STANDARD_P:
                raise ValueError(f"standard grids need p in {_STANDARD_P}, got {self.p}")
        else:
            if self.d < 1:
                raise ValueError(f"d must be positive, got {self.d}")
            if not 0.0 < self.p < 1.0:
                raise ValueError(f"p must lie in (0, 1), got {self.p}")
        uf = self.unknown_fraction
        if not (0.05 <= uf <= 0.20 or (uf == 0.0 and not self.standard_grids)):
            raise ValueError(f"unknown_fraction must lie in [0.05, 0.20], got {uf}")
        if not 3 <= self.cohorts <= 5:
            raise ValueError(f"cohorts must lie in [3, 5], got {self.cohorts}")
        if not 3 <= self.queries_per_instance <= 4:
            raise ValueError(
                f"queries_per_instance must lie in [3, 4], got {self.queries_per_instance}"
            )
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class GeneratedInstance:
    truth: FactorGraph
    incomplete: FactorGraph
    queries: tuple[str, ...]
    stripped: tuple[str, ...]
    cohort_rvs: tuple[tuple[str, ...], ...]
    dominant: int


@dataclass(frozen=True)
class _Plan:
    shapes: tuple[_CohortShape, ...]
    counts: tuple[int, ...]
    dominant: int
    r_total: int

    @property
    def n_factors(self) -> int:
        return 1 + sum(k * s.degree for s, k in zip(self.shapes, self.counts))

    @property
    def strip_capacity(self) -> int:
        cap = 0
        for s, k in zip(self.shapes, self.counts):
            cap += k - 1
            if s.mode:
                cap += k - 1
            if s.unary:
                cap += k - 1
            if s.leaves:
                cap += k * s.leaves - 1
        return cap


def _strip_count(unknown_fraction: float, n_factors: int) -> int:
    if unknown_fraction == 0.0:
        return 0
    return max(1, int(round(unknown_fraction * n_factors)))


# minimal total RV cost of the n - 1 non-dominant cohorts (one member each)
_MIN_REST = {3: 2, 4: 4, 5: 7}


def max_cohorts(d: int, p: float | None = None) -> int:
    """Largest cohort count in [3, 5] the RV budget of scale ``d`` supports.

    n distinct-degree cohorts of one individual each need at least
    1 + min-cost(n) RVs (5, 8, 12 for n = 3, 4, 5) plus slack for the
    packing search; the budget is 3d RVs.  With a target proportion ``p``
    the non-dominant cohorts must also fit into the (1 - p) share of the
    budget, or the dominant cohort cannot reach p within one node.
    """
    budget = 3 * d
    best = 3
    for n, min_graph in ((4, 10), (5, 14)):
        if budget < min_graph:
            break
        if p is not None and budget * (1.0 - p) < _MIN_REST[n]:
            break
        best = n
    return best


def _cost_assignment(
    rest: int, options: list[tuple[int, ...]], rng: np.random.Generator
) -> list[tuple[int, int]] | None:
    """Pick one (cost, count >= 1) per cohort with sum(count * cost) == rest.

    ``options[j]`` lists cohort j's admissible per-individual RV costs.
    Reachable sums are tracked as bitmasks, and the concrete assignment is
    sampled among feasible choices.
    """
    n = len(options)
    full = (1 << (rest + 1)) - 1
    reach = [0] * (n + 1)
    reach[n] = 1
    for j in range(n - 1, -1, -1):
        prev = reach[j + 1]
        mask = 0
        for c in options[j]:
            y = (prev << c) & full
            while y:
                mask |= y
                y = (y << c) & full
        reach[j] = mask
    if not (reach[0] >> rest) & 1:
        return None
    out: list[tuple[int, int]] = []
    x = rest
    for j in range(n):
        feasible = []
        for c in options[j]:
            k = 1
            while k * c <= x:
                if (reach[j + 1] >> (x - k * c)) & 1:
                    feasible.append((c, k))
                k += 1
        c, k = feasible[int(rng.integers(len(feasible)))]
        out.append((c, k))
        x -= c * k
    return out


def _plan(cfg: ExperimentConfig, rng: np.random.Generator) -> _Plan:
    lo, hi = 2 * cfg.d, 3 * cfg.d
    cost_options = {
        deg: tuple(sorted({s.rv_cost for s in shapes}))
        for deg, shapes in _SHAPES_BY_DEGREE.items()
    }
    deg_combos = list(itertools.combinations(range(1, _MAX_DEGREE + 1), cfg.cohorts))
    for tol in (1, 2, 4, 8, 16, 32, float("inf")):
        for r_total in (int(x) for x in rng.permutation(np.arange(lo, hi + 1))):
            if r_total - 1 < cfg.queries_per_instance:
                continue  # any strip touches at least one RV
            for combo in (int(x) for x in rng.permutation(len(deg_combos))):
                degs = list(deg_combos[combo])
                for dom in (int(x) for x in rng.permutation(cfg.cohorts)):
                    dom_shapes = list(_SHAPES_BY_DEGREE[degs[dom]])
                    rng.shuffle(dom_shapes)  # type: ignore[arg-type]
                    other_degs = [dg for i, dg in enumerate(degs) if i != dom]
                    other_options = [cost_options[dg] for dg in other_degs]
                    min_rest = sum(min(o) for o in other_options)
                    target = cfg.p * r_total
                    for dom_shape in dom_shapes:
                        c_dom = dom_shape.rv_cost
                        k_max = (r_total - 1 - min_rest) // c_dom
                        if k_max < 1:
                            continue
                        k_candidates = sorted(
                            range(1, k_max + 1), key=lambda k: abs(k * c_dom - target)
                        )[:6]
                        for k_dom in k_candidates:
                            if abs(k_dom * c_dom - target) > tol:
                                continue
                            rest = r_total - 1 - k_dom * c_dom
                            assignment = _cost_assignment(rest, other_options, rng)
                            if assignment is None:
                                continue
                            shapes: list[_CohortShape] = []
                            counts: list[int] = []
                            others = iter(assignment)
                            for i, dg in enumerate(degs):
                                if i == dom:
                                    shapes.append(dom_shape)
                                    counts.append(k_dom)
                                    continue
                                cost, count = next(others)
                                matching = [
                                    s for s in _SHAPES_BY_DEGREE[dg] if s.rv_cost == cost
                                ]
                                shapes.append(matching[int(rng.integers(len(matching)))])
                                counts.append(count)
                            plan = _Plan(tuple(shapes), tuple(counts), dom, r_total)
                            if plan.strip_capacity < _strip_count(
                                cfg.unknown_fraction, plan.n_factors
                            ):
                                continue
                            return plan
    raise GenerationInfeasible(
        f"no cohort layout for d={cfg.d} p={cfg.p} "
        f"unknown_fraction={cfg.unknown_fraction} cohorts={cfg.cohorts}"
    )


def _build_graph(
    plan: _Plan, rng: np.random.Generator
) -> tuple[FactorGraph, tuple[tuple[str, ...], ...], dict[tuple[int, str], list[str]]]:
    """Materialise a plan; also returns per-cohort RVs and (cohort, role) classes."""
    rvs: list[RandomVariable] = [RandomVariable("hub", HUB_RANGE)]
    factors: list[Factor] = [
        Factor("g0", ("hub",), PotentialTable.from_array(rng.uniform(0.1, 10.0, 4)))
    ]
    cohort_rvs: list[tuple[str, ...]] = []
    classes: dict[tuple[int, str], list[str]] = {}
    for c, (shape, count) in enumerate(zip(plan.shapes, plan.counts)):
        link_table = PotentialTable.from_array(rng.uniform(0.1, 10.0, (4, 2)))
        mode_table = (
            PotentialTable.from_array(rng.uniform(0.1, 10.0, (2, 3))) if shape.mode else None
        )
        unary_table = (
            PotentialTable.from_array(rng.uniform(0.1, 10.0, 2)) if shape.unary else None
        )
        leaf_table = (
            PotentialTable.from_array(rng.uniform(0.1, 10.0, (2, 2))) if shape.leaves else None
        )
        mine: list[str] = []
        for i in range(count):
            core = f"u_c{c}_{i}"
            rvs.append(RandomVariable(core, BOOL_RANGE))
            mine.append(core)
            fid = f"g1_c{c}_{i}"
            factors.append(Factor(fid, ("hub", core), link_table))
            classes.setdefault((c, "link"), []).append(fid)
            if shape.mode:
                mode_rv = f"m_c{c}_{i}"
                rvs.append(RandomVariable(mode_rv, MODE_RANGE))
                mine.append(mode_rv)
                fid = f"g2_c{c}_{i}"
                factors.append(Factor(fid, (core, mode_rv), mode_table))
                classes.setdefault((c, "mode"), []).append(fid)
            if shape.unary:
                fid = f"g3_c{c}_{i}"
                factors.append(Factor(fid, (core,), unary_table))
                classes.setdefault((c, "unary"), []).append(fid)
            for k in range(shape.leaves):
                leaf = f"x_c{c}_{i}_{k}"
                rvs.append(RandomVariable(leaf, BOOL_RANGE))
                mine.append(leaf)
                fid = f"g4_c{c}_{i}_{k}"
                factors.append(Factor(fid, (core, leaf), leaf_table))
                classes.setdefault((c, "leaf"), []).append(fid)
        cohort_rvs.append(tuple(mine))
    return FactorGraph(rvs, factors), tuple(cohort_rvs), classes


def _draw_strip(
    classes: dict[tuple[int, str], list[str]], m: int, rng: np.random.Generator
) -> tuple[str, ...]:
    eligible: list[str] = []
    owner: dict[str, tuple[int, str]] = {}
    for key in sorted(classes):
        members = classes[key]
        if len(members) < 2:
            continue
        for fid in members:
            eligible.append(fid)
            owner[fid] = key
    taken: dict[tuple[int, str], int] = {}
    stripped: list[str] = []
    for fid in (eligible[int(i)] for i in rng.permutation(len(eligible))):
        key = owner[fid]
        if taken.get(key, 0) >= len(classes[key]) - 1:
            continue
        taken[key] = taken.get(key, 0) + 1
        stripped.append(fid)
        if len(stripped) == m:
            break
    return tuple(sorted(stripped))


def generate_instance(cfg: ExperimentConfig) -> GeneratedInstance:
    """Deterministically generate one instance from the config.

    Streams for structure, tables, stripping and queries are split from
    the seed, so e.g. a different unknown_fraction leaves the truth graph
    of the same seed untouched. Raises GenerationInfeasible when no layout
    satisfies all constraints.
    """
    ss = np.random.SeedSequence(cfg.seed)
    s_structure, s_tables, s_strip, s_queries = ss.spawn(4)
    rng_structure = np.random.default_rng(s_structure)
    rng_tables = np.random.default_rng(s_tables)
    rng_strip = np.random.default_rng(s_strip)
    rng_queries = np.random.default_rng(s_queries)

    for _ in range(12):
        plan = _plan(cfg, rng_structure)
        truth, cohort_rvs, classes = _build_graph(plan, rng_tables)
        m = _strip_count(cfg.unknown_fraction, len(truth.factors))
        if m == 0:
            pool = sorted(truth.rv_ids)
            queries = rng_queries.choice(pool, cfg.queries_per_instance, replace=False)
            return GeneratedInstance(
                truth, truth, tuple(sorted(str(q) for q in queries)), (), cohort_rvs, plan.dominant
            )
        for _ in range(60):
            stripped = _draw_strip(classes, m, rng_strip)
            touched: set[str] = set()
            for fid in stripped:
                touched.update(truth.factor(fid).args)
            untouched = sorted(set(truth.rv_ids) - touched)
            if len(untouched) < cfg.queries_per_instance:
                continue
            queries = rng_queries.choice(untouched, cfg.queries_per_instance, replace=False)
            stripped_set = set(stripped)
            incomplete = FactorGraph(
                truth.rvs,
                tuple(
                    Factor(f.id, f.args, None) if f.id in stripped_set else f
                    for f in truth.factors
                ),
            )
            return GeneratedInstance(
                truth,
                incomplete,
                tuple(sorted(str(q) for q in queries)),
                stripped,
                cohort_rvs,
                plan.dominant,
            )
    raise GenerationInfeasible(
        f"could not place {cfg.queries_per_instance} queries outside stripped "
        f"neighbourhoods for d={cfg.d} p={cfg.p} seed={cfg.seed}"
    )


@dataclass(frozen=True)
class QueryResult:
    query: str
    kld: float


@dataclass(frozen=True)
class InstanceResult:
    """Everything the evaluation protocol reports about one instance."""

    config: ExperimentConfig
    n_rvs: int
    n_factors: int
    n_unknown: int
    unresolved: int
    rv_ratio: float
    factor_ratio: float
    queries: tuple[QueryResult, ...]

    @property
    def failed(self) -> bool:
        return self.unresolved > 0


def run_experiment(cfg: ExperimentConfig) -> InstanceResult:
    """Generate, complete, lift, and compare marginals against the truth.

    Per query the result holds KLD(truth marginal, completed-graph
    marginal). An instance with unresolved unknown factors is reported as
    failed (no query rows), never silently skipped.
    """
    inst = generate_instance(cfg)
    result = complete_and_lift(inst.incomplete, cfg.theta)
    rv_ratio, factor_ratio = compression_ratio(result.grouping, result.completed)
    queries: list[QueryResult] = []
    if not result.report.unresolved:
        truth = marginals(inst.truth, inst.queries)
        completed = marginals(result.completed, inst.queries)
        queries = [QueryResult(t.rv, kld(t, c)) for t, c in zip(truth, completed)]
    return InstanceResult(
        config=cfg,
        n_rvs=len(inst.truth.rvs),
        n_factors=len(inst.truth.factors),
        n_unknown=len(inst.stripped),
        unresolved=len(result.report.unresolved),
        rv_ratio=rv_ratio,
        factor_ratio=factor_ratio,
        queries=tuple(queries),
    )
