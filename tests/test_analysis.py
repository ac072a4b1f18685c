import hashlib
from dataclasses import astuple, replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from alphasched import analysis
from alphasched.adversary import append_dos_tail, gen_det_lb1, gen_det_lb2, gen_random_instance
from alphasched.analysis import (
    build_borrow_graph,
    check_beta_properties,
    check_branch_observations,
    check_catch_up,
    check_clairvoyant_runs_block,
    check_direct_borrow_order,
    check_feasibility,
    check_flow_reachability,
    check_local_bounds,
    check_max_flow,
    check_min_cut,
    check_path_decomposition,
    check_reachability_closure,
    check_refinement_beta,
    check_refinement_direct_flow,
    check_times,
    checks_at,
    compute_segments,
    simulate_pair,
    verify_flow_feasible,
    verify_instance,
    verify_traces,
    ReachLifetimes,
)
from alphasched.borrow import BorrowGraph, BorrowSweep, borrow_thresholds, closure
from alphasched.engine import simulate
from alphasched.flow import (
    SINK,
    SOURCE,
    BetaMatrix,
    FlowResult,
    NetworkSweep,
    build_flow_network,
    decompose_beta,
    max_flow_saturates,
    network_flow,
    refine_flow,
)
from alphasched.model import (
    ExecutionSegment,
    Instance,
    Job,
    ModelError,
    Partition,
    ScheduleTrace,
    TimePoint,
    UnknownJobError,
)
from alphasched.policies import PolicyKind
from alphasched.rational import Rat, format_rat, parse_rat
from conftest import corpus_instance, point_at
from flow_reference import (
    borrow_thresholds_all_pairs,
    build_borrow_graph_from_scratch,
    build_flow_network_from_scratch,
    build_flow_network_with_dead_dummies,
    decompose_beta_by_vertex,
    decompose_beta_on_rats,
    edited,
    job_totals_on_rats,
    max_flow_depth_first,
    network_from_arcs,
    verify_flow_feasible_on_rats,
    without_cycles,
)
from test_acceptance import report_bytes, trace_edits


@pytest.fixture
def pair_traces(pair_instance):
    alg, _ = simulate(pair_instance, PolicyKind.ALPHA)
    opt, _ = simulate(pair_instance, PolicyKind.SRPT)
    return alg, opt


def trace_pair(inst):
    alg, _ = simulate(inst, PolicyKind.ALPHA)
    opt, _ = simulate(alg.instance, PolicyKind.SRPT)
    return alg, opt


@st.composite
def arbitrary_time_points(draw):
    """An instance and a time point whose work, partition and O(t) are drawn
    apart from any schedule, so they may contradict one another; small
    denominators make ties in truncated progress common."""
    n = draw(st.integers(1, 8))
    alpha = draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]))
    procs = draw(st.lists(st.fractions(F(1, 4), 8, max_denominator=4), min_size=n, max_size=n))
    work = draw(st.lists(st.fractions(0, 8, max_denominator=4), min_size=n, max_size=n))
    inst = Instance(tuple(Job(j, 0, p) for j, p in enumerate(procs)), alpha)
    subsets = st.frozensets(st.integers(0, n - 1))
    fresh, signalled, opt_alive = draw(subsets), draw(subsets), draw(subsets)
    part = Partition(fresh | signalled, fresh, signalled)
    return inst, TimePoint(F(1), dict(enumerate(work)), part, opt_alive)


@st.composite
def verifier_networks(draw):
    """Flow networks of up to 5 jobs in the verifier's vocabulary: dummies
    whose out-arc has positive or zero capacity, holder arcs into them
    (from demand jobs too), disjoint supply and demand jobs, and the arcs
    inserted in a shuffled order.

    Often four of the jobs form a crossing that no other arc touches: two
    supply jobs hold an interval of each other, with both dummies
    positive, and each feeds a demand job of its own size through one
    interval of the same size.  Once a depth-first maximum flow sends one
    supply through the other's outlet, the other supply can only reach an
    outlet by crossing back or by cancelling that flow; crossing back
    leaves a cycle."""
    crossed = draw(st.booleans())
    n = draw(st.integers(4 if crossed else 1, 5))
    intervals = draw(st.integers(1, 3))
    amounts = st.fractions(F(1, 2), 3, max_denominator=2)
    roles = draw(st.lists(st.sampled_from(["supply", "demand", None]), min_size=n, max_size=n))
    crossing = draw(st.permutations(range(1, n + 1)))[:4] if crossed else ()
    for j, role in zip(crossing, ["supply", "supply", "demand", "demand"]):
        roles[j - 1] = role
    supplies = {j: draw(amounts) for j, role in enumerate(roles, 1) if role == "supply"}
    demands = {i: draw(amounts) for i, role in enumerate(roles, 1) if role == "demand"}
    if crossing:
        size = draw(amounts)
        supplies.update(dict.fromkeys(crossing[:2], size))
        demands.update(dict.fromkeys(crossing[2:], size))
    infinite = sum(supplies.values(), F(0)) + sum(demands.values(), F(1))
    arcs = {}
    others = [j for j in range(1, n + 1) if j not in crossing]
    for i in others:
        for l in range(intervals):
            if draw(st.booleans()):
                arcs[(("dummy", i, l), ("job", i))] = draw(st.fractions(0, 3, max_denominator=2))
                for j in others:
                    if j != i and draw(st.booleans()):
                        arcs[(("job", j), ("dummy", i, l))] = infinite
    if crossing:
        a, b, c, d = crossing
        # a holds an interval of b and feeds c; b holds one of a and feeds d
        for j, i, outlet in ((a, b, c), (b, a, d)):
            k, l = draw(st.integers(0, intervals - 1)), draw(st.integers(0, intervals - 1))
            arcs[(("dummy", i, k), ("job", i))] = draw(amounts)
            arcs[(("job", j), ("dummy", i, k))] = infinite
            arcs[(("dummy", outlet, l), ("job", outlet))] = size
            arcs[(("job", j), ("dummy", outlet, l))] = infinite
    arcs.update({(SOURCE, ("job", j)): s for j, s in supplies.items()})
    arcs.update({(("job", i), SINK): d for i, d in demands.items()})
    order = draw(st.permutations(sorted(arcs)))
    return network_from_arcs(
        tuple(F(k) for k in range(intervals + 1)),
        {arc: arcs[arc] for arc in order},
        supplies,
        demands,
    )


# amounts over the denominators 1, 2, 3, 4 and 6, negative ones included;
# an integral one is an int
MIXED_AMOUNTS = st.sampled_from([1, 2, 3, 4, 6]).flatmap(
    lambda q: st.integers(-2 * q, 4 * q).map(lambda k: F(k, q) if q > 1 else k)
)


@st.composite
def audited_flows(draw):
    """A network of ``verifier_networks`` and a flow of any kind on it: its
    max-flow witness or no flow, plus up to six amounts drawn from
    ``MIXED_AMOUNTS``, each added on one of the network's arcs (some out of
    demand jobs, some pushed past capacity) or on an arc the network lacks,
    so the vertices they touch are left unbalanced; in a shuffled order."""
    net = draw(verifier_networks())
    flow = dict(max_flow_saturates(net)[1].flow) if draw(st.booleans()) else {}
    arcs = sorted(net.arcs)
    inner = sorted({v for arc in arcs for v in arc} - {SOURCE, SINK}) or [job(1)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["arc", "through", "missing"] if arcs else ["missing"]))
        if kind == "missing":
            walk = [draw(st.sampled_from([SOURCE, *inner])), draw(st.sampled_from([*inner, SINK]))]
            if walk == [SOURCE, SINK]:
                walk[1] = inner[0]
        else:
            walk = list(draw(st.sampled_from(arcs)))
            if kind == "through" and walk[1][0] == "dummy":
                walk.append(job(walk[1][1]))
        push(flow, walk, draw(MIXED_AMOUNTS))
    order = draw(st.permutations(sorted(flow)))
    return net, FlowResult(draw(MIXED_AMOUNTS), {arc: flow[arc] for arc in order})


def carries_cycle(flow):
    return without_cycles(flow).flow != flow.flow


# the least number of the 100 examples of each property over
# verifier_networks whose depth-first witness carries a cycle
CYCLIC_FLOOR = 5


# the verifier's incremental paths are checked against the from-scratch
# builders on these instances
ORACLE_SEEDS = range(1, 61)
# (instance, time at which a denial-of-service tail may start)
LOWER_BOUND_RUNS = [
    gen(alpha, k)
    for alpha in (F(1, 2), F(2, 3))
    for gen, ks in ((gen_det_lb1, range(2, 5)), (gen_det_lb2, range(1, 5)))
    for k in ks
]
LOWER_BOUND_INSTANCES = [inst for inst, _ in LOWER_BOUND_RUNS]


class TestBorrowGraph:
    def test_single_job_no_edges(self):
        inst = Instance((Job(1, 0, 1),), F(1, 2))
        trace, _ = simulate(inst, PolicyKind.ALPHA)
        graph = build_borrow_graph(trace, 1)
        assert graph.edges == ()
        assert graph.reachable(1) == {1}

    def test_setf_pair_mutual_unsignalled_edges(self, pair_instance):
        # at alpha = 1 neither job ever signals: only N edges both ways
        inst = pair_instance.with_alpha(F(1))
        trace, _ = simulate(inst, PolicyKind.SETF)
        graph = build_borrow_graph(trace, 3)
        assert set(graph.edges) == {(1, 2, "N"), (2, 1, "N")}
        assert graph.reachable(1) == {1, 2}

    def test_late_job_not_borrowable(self):
        # job 2 released after job 1 completes: no (1, 2) edge
        inst = Instance((Job(1, 0, 1), Job(2, 2, 1)), F(1, 2))
        trace, _ = simulate(inst, PolicyKind.ALPHA)
        graph = build_borrow_graph(trace, 3)
        assert not any(e[0] == 1 for e in graph.edges)

    def test_chain_reachability(self):
        inst = Instance((Job(1, 0, 2), Job(2, 1, 2), Job(3, 3, 2)), F(1))
        trace, _ = simulate(inst, PolicyKind.SETF)
        graph = build_borrow_graph(trace, 6)
        assert graph.reachable(1).issuperset({1, 2})

    def test_unknown_vertex(self, pair_traces):
        graph = build_borrow_graph(pair_traces[0], 1)
        with pytest.raises(UnknownJobError):
            graph.reachable(99)

    @pytest.mark.parametrize("seed", range(8))
    def test_path_lifetime_is_one_interval_ending_at_t(self, seed):
        # walk any borrow path from an alive job: its lifetime union is a
        # single interval whose right end is the evaluation time
        inst = corpus_instance(seed + 20)
        trace, _ = simulate(inst, PolicyKind.ALPHA)
        for t in trace.event_times():
            alive = trace.alive_at(t)
            if not alive:
                continue
            graph = build_borrow_graph(trace, t)
            start = min(alive)
            path = [start]
            seen = {start}
            while True:
                nxt = sorted(i for j, i, _ in graph.edges if j == path[-1] and i not in seen)
                if not nxt:
                    break
                path.append(nxt[0])
                seen.add(nxt[0])
            intervals = trace.lifetime(path, t)
            assert len(intervals) == 1
            assert intervals[0][1] == t

    def test_tags_split_by_signal_time(self, pair_traces):
        alg, _ = pair_traces
        # job 1 runs [2,3] past its signal inside job 2's lifetime
        graph = build_borrow_graph(alg, F(5, 2))
        assert (2, 1, "N") in graph.edges
        assert (2, 1, "C") in graph.edges
        assert (1, 2, "N") in graph.edges
        assert (1, 2, "C") not in graph.edges

    def test_closure_names_a_job_run_outside_the_set(self, pair_traces):
        # without its edges to job 2, job 1 reaches only itself, yet job 2
        # ran inside job 1's lifetime [0, 5/2]
        alg, opt = pair_traces
        t = F(5, 2)
        graph = build_borrow_graph(alg, t)
        cut = BorrowGraph(graph.vertices, frozenset(e for e in graph.edges if e[:2] != (1, 2)))
        assert check_reachability_closure(alg, graph, point_at(alg, opt, t)) == []
        assert check_reachability_closure(alg, cut, point_at(alg, opt, t)) == [
            "job 2 executed inside lifetime of reachability set of 1 but is not reachable (t=5/2)"
        ]

    def test_closure_finds_no_outsider_in_an_empty_lifetime(self):
        # job 2 arrives at 2 while job 1 runs alone on one segment [0, 4):
        # at t = 2 job 2's lifetime is the point [2, 2], inside which no job
        # runs for any positive time, even with every borrow edge cut
        trace, _ = simulate(Instance((Job(1, 0, 4), Job(2, 2, 10)), F(1, 2)), PolicyKind.SRPT)
        assert trace.segments[0] == ExecutionSegment(0, 4, ((1, F(1)),))
        t = F(2)
        graph = build_borrow_graph(trace, t)
        cut = BorrowGraph(graph.vertices, frozenset())
        assert trace.lifetime({2}, t) == [(t, t)]
        assert (trace.ran_within(t, t), trace.ran_within(t, F(3))) == (set(), {1})
        assert check_reachability_closure(trace, cut, point_at(trace, trace, t)) == []


class TestBorrowSweep:
    @pytest.mark.parametrize(
        "inst",
        [corpus_instance(seed) for seed in ORACLE_SEEDS] + LOWER_BOUND_INSTANCES,
    )
    def test_carried_graph_equals_rebuild(self, inst):
        alg, opt = trace_pair(inst)
        sweep = BorrowSweep(alg)
        for t in check_times(alg, opt)[1]:
            carried, rebuilt = sweep.at(t), build_borrow_graph_from_scratch(alg, t)
            assert carried.vertices == rebuilt.vertices
            assert sorted(carried.edges) == sorted(rebuilt.edges)
            for j in rebuilt.vertices:
                assert carried.reachable(j) == rebuilt.reachable(j)

    def test_graph_kept_while_nothing_changes(self, pair_traces):
        alg, _ = pair_traces
        sweep = BorrowSweep(alg)
        first = sweep.at(F(1, 8))
        assert sweep.at(F(1, 4)) is first  # no edge passes its threshold in between
        assert sweep.at(F(5, 2)) is not first

    def test_time_may_not_go_back(self, pair_traces):
        sweep = BorrowSweep(pair_traces[0])
        sweep.at(2)
        with pytest.raises(ValueError):
            sweep.at(1)


def assert_swept_state_equals_rebuilds(inst) -> int:
    """The verifier's carried state against its from-scratch definitions at
    every dense time: thresholds against every pair, each swept time point
    against ``point_at``, each vertex's carried reachable set against
    ``closure`` over the whole edge list, and the carried closure check's
    verdicts against the from-scratch ones, on the borrow graph and on one
    missing every edge (j, i) with j + i even, whose checks fail.  The
    number of violations the failing graphs gave."""
    alg, opt = trace_pair(inst)
    assert borrow_thresholds(alg) == borrow_thresholds_all_pairs(alg)
    sweep, carried, carried_cut, fired = BorrowSweep(alg), ReachLifetimes(), ReachLifetimes(), 0
    graph = None
    for point in TimePoint.sweep(alg, opt, check_times(alg, opt)[1]):
        assert point == point_at(alg, opt, point.t)
        if sweep.at(point.t) is not graph:  # a vertex or an edge joined
            graph = sweep.at(point.t)
            succ = {}
            for j, i, _ in graph.edges:
                succ.setdefault(j, set()).add(i)
            assert all(graph.reachable(j) == closure(succ, j) for j in graph.vertices)
            cut = BorrowGraph(graph.vertices, [e for e in graph.edges if (e[0] + e[1]) % 2])
        for g, kept in ((graph, carried), (cut, carried_cut)):
            verdict = check_reachability_closure(alg, g, point, kept)
            assert verdict == check_reachability_closure(alg, g, point)
        fired += len(verdict)
    return fired


class TestSweptStateEqualsRebuilds:
    @pytest.mark.parametrize("first", range(1, 501, 50))
    def test_corpus(self, first):
        fired = sum(assert_swept_state_equals_rebuilds(corpus_instance(s)) for s in range(first, first + 50))
        assert fired > 0

    # each bare, and with a denial-of-service tail of 8 unit jobs
    @pytest.mark.parametrize(
        "inst", LOWER_BOUND_INSTANCES + [append_dos_tail(inst, t, 8) for inst, t in LOWER_BOUND_RUNS]
    )
    def test_lower_bounds(self, inst):
        assert_swept_state_equals_rebuilds(inst)

    def test_closure_state_carries_outsiders_and_split_lifetimes(self, pair_traces):
        # job 1 alone keeps reaching only itself while job 2 runs inside its
        # lifetime, and two jobs that never meet keep a two-piece lifetime
        alg, opt = pair_traces
        inst = Instance((Job(1, 0, 1), Job(2, 2, 1)), F(1, 2))
        apart, apart_opt = trace_pair(inst)
        for trace, other, graph in (
            (alg, opt, BorrowGraph((1, 2), [(2, 1, "N")])),
            (apart, apart_opt, BorrowGraph((1, 2), [(1, 2, "N")])),
        ):
            carried = ReachLifetimes()
            for t in (F(5, 2), F(3), F(7, 2), F(4)):
                point = point_at(trace, other, t)
                verdict = check_reachability_closure(trace, graph, point, carried)
                assert verdict and verdict == check_reachability_closure(trace, graph, point)
                assert set(carried.lives) == {graph.reachable(1), graph.reachable(2)}

    def test_grown_set_gains_the_jobs_run_before_it(self):
        # job 1 (released at 2) first reaches itself, then job 2 too, whose
        # lifetime starts at 0: the grown set's lifetime takes in [0, 1],
        # where job 3, outside the set, ran
        inst = Instance((Job(2, 0, 2), Job(3, 0, 1), Job(1, 2, 2)), F(1, 2))
        trace = ScheduleTrace(inst, [
            ExecutionSegment(k, k + 1, ((j, F(1)),)) for k, j in enumerate((3, 2, 1, 2, 1))
        ])
        carried = ReachLifetimes()
        for t, edges in ((F(5, 2), []), (F(7, 2), [(1, 2, "N")])):
            graph = BorrowGraph((2, 3, 1), edges)
            point = point_at(trace, trace, t)
            verdict = check_reachability_closure(trace, graph, point, carried)
            assert verdict == check_reachability_closure(trace, graph, point)
        assert "job 3 executed inside lifetime of reachability set of 1 but is not reachable (t=7/2)" in verdict

    def test_split_lifetime_joined_by_a_grown_set(self):
        # jobs 1 and 2 never meet, so {1, 2} lives on two intervals; job 3,
        # alive on [1/2, 7/2], joins them into one, inside which no job
        # outside {1, 2, 3} ran
        inst = Instance((Job(1, 0, 1), Job(3, F(1, 2), F(3, 2)), Job(2, 2, 1)), F(1, 2))
        trace = ScheduleTrace(inst, [
            ExecutionSegment(0, 1, ((1, F(1)),)),
            ExecutionSegment(1, 2, ((3, F(1)),)),
            ExecutionSegment(2, 3, ((2, F(1)),)),
            ExecutionSegment(3, F(7, 2), ((3, F(1)),)),
        ])
        carried, verdicts = ReachLifetimes(), []
        for t, edges in ((F(4), [(1, 2, "N")]), (F(9, 2), [(1, 2, "N"), (1, 3, "N")])):
            graph = BorrowGraph((1, 3, 2), edges)
            point = point_at(trace, trace, t)
            verdicts.append(check_reachability_closure(trace, graph, point, carried))
            assert verdicts[-1] == check_reachability_closure(trace, graph, point)
        assert verdicts[0][0] == "lifetime of reachability set of 1 at t=4/1 is 2 intervals"
        assert not [line for line in verdicts[1] if "set of 1 " in line]


class TestFlowNetwork:
    def test_pair_example_at_five_halves(self, pair_traces):
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(5, 2)))
        assert net.supplies == {1: F(1, 2)}
        assert net.demands == {2: F(1)}
        chain_caps = [
            cap
            for (u, v), cap in net.arcs.items()
            if u == ("job", 1) and v[0] == "dummy" and v[1] == 2
        ]
        assert chain_caps  # the borrowing route exists
        saturated, flow = max_flow_saturates(net)
        assert saturated and flow.value == F(1, 2)
        assert verify_flow_feasible(net, flow) == []

    def test_zero_time_network_is_empty(self, pair_traces):
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, 0))
        assert not net.supplies and not net.demands
        saturated, flow = max_flow_saturates(net)
        assert saturated and flow.value == 0

    def test_no_surplus_means_zero_supply(self, pair_traces):
        alg, opt = pair_traces
        # at t=7/2 the fused policy finished job 1; only job 2 is alive in both
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(7, 2)))
        assert net.total_supply == 0

    def test_starved_network_fails_saturation(self, pair_traces):
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(5, 2)))
        # below the 1/2 supply
        net = edited(net, {(u, v): F(1, 8) for u, v in net.arcs if v == ("job", 2) and u[0] == "dummy"})
        saturated, flow = max_flow_saturates(net)
        assert not saturated and flow.value == F(1, 8)
        # the cut runs between job 2's dummy and job 2, not at the source
        assert flow.cut == {SOURCE, ("job", 1), ("dummy", 2, 0)}
        assert check_min_cut(net, flow) == []

    def test_min_cut_certificate_rejects_a_wrong_witness(self, pair_traces):
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(5, 2)))
        net = edited(net, {(("dummy", 2, 0), ("job", 2)): F(1, 8)})
        _, flow = max_flow_saturates(net)
        at_source = FlowResult(flow.value, flow.flow, cut=frozenset({SOURCE}))
        assert check_min_cut(net, at_source) == ["min cut capacity 1/2 is not the max flow 1/8"]
        overstated = FlowResult(F(1, 2), flow.flow, cut=flow.cut)
        assert check_min_cut(net, overstated) == [
            "flow leaving the source is 1/8, not the value 1/2",
            "min cut capacity 1/8 is not the max flow 1/2",
        ]
        whole = FlowResult(flow.value, flow.flow, cut=frozenset({SOURCE, SINK}))
        assert "min cut witness does not separate the source from the sink" in check_min_cut(net, whole)

    def test_min_cut_inside_the_network(self):
        # supplies 1 (2) and 3 (1); job 1 reaches demand job 2, whose sink
        # arc (1) is the bottleneck, and job 3 reaches demand job 4 through
        # a dummy of capacity 1/2; job 2's onward arc is not in the network
        inf = F(10)
        arcs = {
            (SOURCE, ("job", 1)): F(2),
            (SOURCE, ("job", 3)): F(1),
            (("job", 1), ("dummy", 2, 0)): inf,
            (("job", 2), ("dummy", 1, 0)): inf,
            (("job", 3), ("dummy", 4, 0)): inf,
            (("dummy", 1, 0), ("job", 1)): F(1),
            (("dummy", 2, 0), ("job", 2)): F(2),
            (("dummy", 4, 0), ("job", 4)): F(1, 2),
            (("job", 2), SINK): F(1),
            (("job", 4), SINK): F(1),
        }
        net = network_from_arcs((F(0), F(1)), arcs, {1: F(2), 3: F(1)}, {2: F(1), 4: F(1)})
        saturated, flow = max_flow_saturates(net)
        assert not saturated and flow.value == F(3, 2)
        assert flow.cut == {SOURCE, ("job", 1), ("dummy", 2, 0), ("job", 2), ("job", 3), ("dummy", 4, 0)}
        assert check_min_cut(net, flow) == []
        assert verify_flow_feasible(net, flow) == []

    def test_max_flow_passes_a_demand_vertex_backwards(self):
        # the first path fills demand job 3 from supply 1; supply 2 reaches
        # only job 3, so the second path must enter job 3 and cancel 1's
        # flow into it, which then goes to job 4: the max flow is 2
        inf = F(10)
        arcs = {
            (SOURCE, ("job", 1)): F(1),
            (SOURCE, ("job", 2)): F(1),
            (("job", 1), ("dummy", 3, 0)): inf,
            (("job", 1), ("dummy", 4, 0)): inf,
            (("job", 2), ("dummy", 3, 1)): inf,
            (("dummy", 3, 0), ("job", 3)): F(1),
            (("dummy", 3, 1), ("job", 3)): F(1),
            (("dummy", 4, 0), ("job", 4)): F(1),
            (("job", 3), SINK): F(1),
            (("job", 4), SINK): F(1),
        }
        net = network_from_arcs((F(0), F(1), F(2)), arcs, {1: F(1), 2: F(1)}, {3: F(1), 4: F(1)})
        saturated, flow = max_flow_saturates(net)
        assert saturated and flow.value == 2 and flow.cut is None
        assert verify_flow_feasible(net, flow) == []
        assert flow.job_totals() == {(1, 4): 1, (2, 3): 1}

    def test_feasibility_audit_catches_overflow(self, pair_traces):
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(5, 2)))
        _, flow = max_flow_saturates(net)
        doctored = dict(flow.flow)
        for (u, v), f in list(doctored.items()):
            if u[0] == "dummy":
                doctored[(u, v)] = f + 1
        from alphasched.analysis import FlowResult

        bad = FlowResult(value=flow.value, flow=doctored)
        violations = verify_flow_feasible(net, bad)
        assert any("capacity violated" in v or "conservation" in v for v in violations)

    def test_reachability_matches_borrow_graph(self, pair_traces):
        alg, opt = pair_traces
        t = F(5, 2)
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, t))
        graph = build_borrow_graph(alg, t)
        for j in net.supplies:
            assert net.job_reachable(j) & set(net.demands) == graph.reachable(j) & set(
                net.demands
            )


def assert_swept_networks_equal_rebuilds(inst):
    """Base and refined networks as the verifier builds them (one sweep
    carried across the event times), against the reference builder on a
    fresh trace of the same schedule, whose work columns are computed anew."""
    alg, opt = trace_pair(inst)
    sweep = NetworkSweep(alg)
    for t in check_times(alg, opt)[0]:
        point = point_at(alg, opt, t)
        net = build_flow_network(sweep, point)
        fresh = ScheduleTrace(alg.instance, alg.segments)
        scratch = build_flow_network_from_scratch(fresh, point_at(fresh, opt, t))
        # the residual index too: the sweep's hubs, written by construction,
        # are the ones the reference builder detects from the arcs
        assert net == scratch
        assert max_flow_saturates(net) == max_flow_saturates(scratch)
        tps = net.time_points
        mids = [(a + b) / 2 for a, b in zip(tps, tps[1:])]
        fresh = ScheduleTrace(alg.instance, alg.segments)
        refined = build_flow_network_from_scratch(fresh, point_at(fresh, opt, t), extra_points=mids)
        # a refined network is never solved and carries no index
        assert build_flow_network(sweep, point, refined=True) == replace(refined, index=None)


def witness_lines(inst):
    """Per event time: the base network's max flow and its borrowing matrix,
    and the flow refinement carries over with that flow's matrix."""

    def rats(values):
        return ";".join(f"{key}={format_rat(v)}" for key, v in sorted(values.items()))

    alg, opt = trace_pair(inst)
    sweep = NetworkSweep(alg)
    for t in check_times(alg, opt)[0]:
        point = point_at(alg, opt, t)
        net = build_flow_network(sweep, point)
        saturated, flow = max_flow_saturates(net)
        yield f"{format_rat(t)} {saturated} {format_rat(flow.value)} {rats(flow.flow)}"
        if saturated:
            beta = decompose_beta(flow)
            yield f"beta {rats(beta.values)} {format_rat(beta.discarded_cycle_flow)}"
            carried = refine_flow(net, flow, build_flow_network(sweep, point, refined=True))
            refined_beta = decompose_beta(carried)
            yield (
                f"refined {rats(carried.flow)} {rats(refined_beta.values)} "
                f"{format_rat(refined_beta.discarded_cycle_flow)}"
            )


class TestFlowOracles:
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_incremental_networks_equal_rebuilds(self, seed):
        assert_swept_networks_equal_rebuilds(corpus_instance(seed))

    @pytest.mark.parametrize("inst", LOWER_BOUND_INSTANCES)
    def test_incremental_networks_equal_rebuilds_on_lower_bounds(self, inst):
        assert_swept_networks_equal_rebuilds(inst)

    def test_incremental_networks_equal_rebuilds_with_a_dos_tail(self):
        inst, t = gen_det_lb2(F(1, 2), 3)
        assert_swept_networks_equal_rebuilds(append_dos_tail(inst, t, 20))

    def test_sweep_time_may_not_go_back(self, pair_traces):
        alg, opt = pair_traces
        sweep = NetworkSweep(alg)
        build_flow_network(sweep, point_at(alg, opt, 2))
        with pytest.raises(ValueError, match="network sweep asked for t=1/1 after t=2/1"):
            build_flow_network(sweep, point_at(alg, opt, 1))

    def test_witness_flows_and_betas_are_pinned(self):
        # the sha256 of every witness flow and borrowing matrix the verifier
        # computes at the event times of the oracle corpus and of batch
        # instances n = 6..13 at alpha 1/2, recorded when the max flow moved
        # to a residual index with one hub per interval (the witness is any
        # maximum flow without a cycle); report.json shows neither
        instances = [corpus_instance(seed) for seed in ORACLE_SEEDS] + [
            gen_random_instance(n, 8, 1.0, seed=n, alpha=F(1, 2)) for n in range(6, 14)
        ]
        digest = hashlib.sha256()
        lines = 0
        for inst in instances:
            for line in witness_lines(inst):
                digest.update(line.encode() + b"\n")
                lines += 1
        assert lines == 3522
        assert digest.hexdigest() == "14ca24a31bf10b8e570c112903f0c3431baca4e32bd3d99b4dd42053d506aa5a"

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_max_flow_value_matches_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        alg, opt = trace_pair(corpus_instance(seed))
        sweep = NetworkSweep(alg)
        for t in check_times(alg, opt)[0]:
            net = build_flow_network(sweep, point_at(alg, opt, t))
            # a demand job only absorbs: its flow leaves to the sink alone
            graph = nx.DiGraph()
            graph.add_nodes_from([("source",), ("sink",)])
            for (u, v), cap in net.arcs.items():
                if not (u[0] == "job" and u[1] in net.demands and v != ("sink",)):
                    graph.add_edge(u, v, capacity=cap)
            saturated, flow = max_flow_saturates(net)
            assert flow.value == nx.maximum_flow_value(graph, ("source",), ("sink",))
            assert saturated
            assert verify_flow_feasible(net, flow) == []

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(verifier_networks())
    def test_max_flow_on_random_networks(self, net):
        nx = pytest.importorskip("networkx")
        graph = nx.DiGraph()
        graph.add_nodes_from([SOURCE, SINK])
        for (u, v), cap in net.arcs.items():
            if not (u[0] == "job" and u[1] in net.demands and v != SINK):
                graph.add_edge(u, v, capacity=cap)
        saturated, flow = max_flow_saturates(net)
        assert flow.value == nx.maximum_flow_value(graph, SOURCE, SINK)
        assert verify_flow_feasible(net, flow) == []
        assert saturated == (flow.value == net.total_supply)
        if not saturated:
            assert check_min_cut(net, flow) == []
        # the result depends on the network alone, not on the arcs' order
        for order in (sorted(net.arcs), sorted(net.arcs, reverse=True)):
            arcs = {arc: net.arcs[arc] for arc in order}
            reordered = network_from_arcs(net.time_points, arcs, net.supplies, net.demands)
            assert max_flow_saturates(reordered) == (saturated, flow)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(verifier_networks())
    def test_witness_carries_no_cycle_on_random_networks(self, net):
        saturated, flow = max_flow_saturates(net)
        assert without_cycles(flow) == flow
        if saturated:
            assert decompose_beta(flow).discarded_cycle_flow == 0

    def test_witness_carries_no_cycle_on_corpus_networks(self):
        for seed in ORACLE_SEEDS:
            alg, opt = trace_pair(corpus_instance(seed))
            sweep = NetworkSweep(alg)
            for t in check_times(alg, opt)[0]:
                saturated, flow = max_flow_saturates(build_flow_network(sweep, point_at(alg, opt, t)))
                assert without_cycles(flow) == flow
                if saturated:
                    assert decompose_beta(flow).discarded_cycle_flow == 0

    def test_peeled_values_on_corpus_witnesses_are_rats(self):
        # the peel and the job-level flow compute on ints; an int equals
        # and hashes as its Rat, so no report digest would show one leaking
        for seed in ORACLE_SEEDS:
            alg, opt = trace_pair(corpus_instance(seed))
            sweep = NetworkSweep(alg)
            for t in check_times(alg, opt)[0]:
                point = point_at(alg, opt, t)
                net = build_flow_network(sweep, point)
                saturated, flow = max_flow_saturates(net)
                if not saturated:
                    continue
                refined = refine_flow(net, flow, build_flow_network(sweep, point, refined=True))
                for result in (flow, refined):
                    beta = decompose_beta(result)
                    values = [*beta.values.values(), beta.discarded_cycle_flow, *result.job_totals().values()]
                    assert all(type(v) is Rat for v in values)

    def test_max_flow_reads_arcs_replaced_after_the_build(self, pair_traces):
        # a network rebuilt with a replaced arc is solved on its own arcs,
        # and the network it came from keeps its value
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(5, 2)))
        starved = edited(net, {(dummy(2), job(2)): F(1, 8)})
        assert max_flow_saturates(starved)[1].value == F(1, 8)
        assert max_flow_saturates(net)[1].value == F(1, 2)

    def test_max_flow_reads_arcs_edited_after_the_build(self, pair_traces):
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(5, 2)))
        assert max_flow_saturates(net)[1].value == F(1, 2)
        narrowed = edited(net, {arc: F(1, 3) for arc in net.arcs if arc[0] == SOURCE})
        assert max_flow_saturates(narrowed)[1].value == F(1, 3)
        assert max_flow_saturates(net)[1].value == F(1, 2)

    def test_swept_network_arcs_are_read_only(self, pair_traces):
        # the solver reads the index built with the arcs, so an edit must
        # not pass silently
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(5, 2)))
        with pytest.raises(TypeError):
            net.arcs[(SOURCE, job(1))] = F(1, 3)
        with pytest.raises(TypeError):
            del net.arcs[(SOURCE, job(1))]
        assert max_flow_saturates(net)[1].value == F(1, 2)

    def test_job_totals_sum_over_intervals(self, pair_traces):
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(5, 2)))
        _, flow = max_flow_saturates(net)
        assert flow.job_totals() == {(1, 2): F(1, 2)}

    def test_refinement_carries_flow_past_a_half_without_work(self):
        # job 2 runs only in the second half of the base interval [0, 2],
        # which carries job 1's borrowed flow: the refined network has no
        # dummy for job 2 on [0, 1], and all of it goes to [1, 2]
        inst = Instance((Job(1, 0, 2), Job(2, 0, 3)), F(1, 2))
        segments = [
            ExecutionSegment(0, 1, ((1, F(1)),)),
            ExecutionSegment(1, 2, ((2, F(1)),)),
            ExecutionSegment(2, 3, ((1, F(1)),)),
            ExecutionSegment(3, 5, ((2, F(1)),)),
        ]
        alg = ScheduleTrace(inst, segments)
        opt, _ = simulate(inst, PolicyKind.SRPT)
        point = point_at(alg, opt, 2)
        sweep = NetworkSweep(alg)
        net = build_flow_network(sweep, point)
        assert net.time_points == (0, 2)
        saturated, flow = max_flow_saturates(net)
        assert saturated and flow.flow[(("job", 1), ("dummy", 2, 0))] == 1
        refined = build_flow_network(sweep, point, refined=True)
        carried = refine_flow(net, flow, refined)
        assert refined.time_points == (0, 1, 2)
        assert (("dummy", 2, 0), ("job", 2)) not in refined.arcs
        assert carried.flow == {
            (SOURCE, ("job", 1)): 1,
            (("job", 2), SINK): 1,
            (("job", 1), ("dummy", 2, 1)): 1,
            (("dummy", 2, 1), ("job", 2)): 1,
        }
        assert verify_flow_feasible(refined, carried) == []
        assert decompose_beta(carried).values == {(1, 2): 1}

    def test_refine_rejects_a_network_of_another_time(self, pair_traces):
        alg, opt = pair_traces
        sweep = NetworkSweep(alg)
        net = build_flow_network(sweep, point_at(alg, opt, F(5, 2)))
        _, flow = max_flow_saturates(net)
        with pytest.raises(ValueError):
            refine_flow(net, flow, build_flow_network(sweep, point_at(alg, opt, F(3)), refined=True))


# the pools the second solver is drawn over, each a list of keys: corpus
# seeds; lower-bound families; batch instances (n, seed, alpha); and per
# corpus seed and edit kind the edited traces that
# test_failing_reports_byte_identical verifies
SOLVER_POOLS = {
    "corpus": list(range(1, 501)),
    "lower_bounds": [
        (gen, alpha, k)
        for gen in (gen_det_lb1, gen_det_lb2)
        for alpha in (F(1, 2), F(2, 3), F(3, 4))
        for k in (2, 3)
    ],
    "batch": [
        (n, seed, alpha)
        for seed in range(1, 11)
        for alpha in (F(1, 2), F(2, 3), F(3, 4))
        for n in range(1, 17)
    ],
    "failing": [(seed, kind) for seed in range(1, 201) for kind in ("swap", "drop", "halve")],
}


def edited_traces(seed, kind):
    """The edits of one kind of the fused rule's trace on corpus seed
    ``seed`` that parse and differ from it, in edit order, each with the
    optimum's trace."""
    alg, opt = simulate_pair(corpus_instance(seed))
    rows = alg.csv_rows()
    for edit, edited, cut in trace_edits(rows):
        if edit != kind:
            continue
        try:
            trace = ScheduleTrace.from_csv_rows(alg.instance, edited, alg.makespan if cut else None)
        except ModelError:
            continue
        if trace.csv_rows() != rows:
            yield trace, opt


def depth_first_without_cycles(seed):
    """The depth-first max flow shuffled by ``seed``, its cycles cancelled:
    ``path_decomposition`` reports a witness's cycle flow, so it is the one
    check whose verdict depends on which maximum flow is found."""

    def solve(net):
        saturated, result = max_flow_depth_first(net, seed)
        return saturated, without_cycles(result)

    return solve


def assert_solvers_agree(pool, key, seed):
    """Verify the pool's traces with the package's max flow and with the
    depth-first one shuffled by ``seed``, cycles cancelled; the reports must
    be the same bytes.  An edited trace is verified up to the first that
    fails, as test_failing_reports_byte_identical does."""
    if pool == "failing":
        pairs = edited_traces(*key)
    elif pool == "corpus":
        pairs = [simulate_pair(corpus_instance(key))]
    elif pool == "lower_bounds":
        gen, alpha, k = key
        pairs = [simulate_pair(gen(alpha, k)[0])]
    else:
        n, inst_seed, alpha = key
        pairs = [simulate_pair(gen_random_instance(n, 8, 1.0, inst_seed, alpha))]
    for alg, opt in pairs:
        report = verify_traces(alg, opt)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "max_flow_saturates", depth_first_without_cycles(seed))
            assert report_bytes(verify_traces(alg, opt)) == report_bytes(report)
        if not report.ok:
            return


class TestSecondSolver:
    def test_depth_first_max_flow_on_random_networks(self):
        cyclic = []

        @settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @given(verifier_networks(), st.integers(0, 2**32 - 1))
        def check(net, seed):
            # another maximum flow, with the same value and least minimum cut
            saturated, flow = max_flow_saturates(net)
            other_saturated, other = max_flow_depth_first(net, seed)
            assert (other_saturated, other.value, other.cut) == (saturated, flow.value, flow.cut)
            assert verify_flow_feasible(net, other) == []
            acyclic = without_cycles(other)
            assert verify_flow_feasible(net, acyclic) == []
            assert decompose_beta(acyclic).discarded_cycle_flow == 0
            cyclic.append(carries_cycle(other))

        check()
        # the crossings give the cancellation cycles to remove
        assert sum(cyclic) >= CYCLIC_FLOOR

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        st.sampled_from(sorted(SOLVER_POOLS)).flatmap(
            lambda pool: st.tuples(st.just(pool), st.sampled_from(SOLVER_POOLS[pool]))
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_reports_do_not_depend_on_the_max_flow_found(self, case, seed):
        assert_solvers_agree(*case, seed)


class TestDeadDummies:
    """The builder omits every dummy whose interval gave its job no work;
    the reference builder in ``flow_reference`` keeps them."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_omitting_dead_dummies_changes_nothing(self, seed):
        nx = pytest.importorskip("networkx")
        alg, opt = trace_pair(corpus_instance(seed))
        sweep = NetworkSweep(alg)
        for t in check_times(alg, opt)[0]:
            point = point_at(alg, opt, t)
            net = build_flow_network(sweep, point)
            full = build_flow_network_with_dead_dummies(alg, point)
            assert all(cap > 0 for cap in net.arcs.values())
            assert {arc: full.arcs[arc] for arc in net.arcs} == net.arcs
            dead = {u for (u, v), cap in full.arcs.items() if u[0] == "dummy" and cap == 0}
            assert {arc for arc in full.arcs if arc not in net.arcs} == {
                (u, v) for u, v in full.arcs if u in dead or v in dead
            }
            result = max_flow_saturates(net)
            assert result == max_flow_saturates(full)
            ids = [job.id for job in alg.instance.jobs]
            assert net.reach_sets(ids) == full.reach_sets(ids)
            saturated, flow = result
            assert saturated
            refined = build_flow_network(sweep, point, refined=True)
            graph = nx.DiGraph()
            graph.add_nodes_from([SOURCE, SINK])
            for (u, v), cap in refined.arcs.items():
                if not (u[0] == "job" and u[1] in refined.demands and v != SINK):
                    graph.add_edge(u, v, capacity=cap)
            assert nx.maximum_flow_value(graph, SOURCE, SINK) == flow.value


class TestHubs:
    """The sweep writes one hub per interval into its networks' residual
    index.  The reference builder detects them in a hand-built network: one
    hub per interval only where the holder layer is complete and no holder
    arc can bind; elsewhere it keeps the network's direct holder arcs."""

    def test_incomplete_layer_keeps_its_direct_arcs(self):
        # supplies 1 and 2, demands 3 and 4; in interval 0 job 1 feeds
        # dummies 2 and 4 and job 2 feeds dummies 1 and 3.  Through a hub,
        # the first path would run 1 -> hub -> (3, 0), an arc the network
        # does not have
        inf = F(10)
        arcs = {
            (SOURCE, job(1)): F(1),
            (SOURCE, job(2)): F(1),
            (job(1), dummy(2)): inf,
            (job(1), dummy(4)): inf,
            (job(2), dummy(1)): inf,
            (job(2), dummy(3)): inf,
            **{(dummy(i), job(i)): F(1) for i in range(1, 5)},
            (job(3), SINK): F(1),
            (job(4), SINK): F(1),
        }
        net = network_from_arcs((F(0), F(1)), arcs, {1: F(1), 2: F(1)}, {3: F(1), 4: F(1)})
        assert not any(v[0] == "hub" for v in net.index.vertices)
        saturated, flow = max_flow_saturates(net)
        assert saturated and verify_flow_feasible(net, flow) == []
        assert flow.job_totals() == {(1, 4): 1, (2, 3): 1}
        # the complete layer gets its hub
        complete = edited(net, {(job(1), dummy(3)): inf, (job(2), dummy(4)): inf})
        assert ("hub", 0) in complete.index.number
        saturated, flow = max_flow_saturates(complete)
        assert saturated and verify_flow_feasible(complete, flow) == []

    def test_holder_arc_within_the_supply_keeps_the_direct_arcs(self):
        # jobs 1 and 4 hold interval 0 and feed job 2's dummy, job 1
        # through an arc of 1/2, below the total supply of 2, which binds
        arcs = {
            (SOURCE, job(1)): F(1),
            (SOURCE, job(4)): F(1),
            (job(1), dummy(2)): F(1, 2),
            (job(4), dummy(2)): F(10),
            (dummy(2), job(2)): F(2),
            (job(2), SINK): F(2),
        }
        net = network_from_arcs((F(0), F(1)), arcs, {1: F(1), 4: F(1)}, {2: F(2)})
        assert not any(v[0] == "hub" for v in net.index.vertices)
        saturated, flow = max_flow_saturates(net)
        assert not saturated and flow.value == F(3, 2)
        assert flow.cut == {SOURCE, job(1)}
        assert check_min_cut(net, flow) == [] and verify_flow_feasible(net, flow) == []
        # with every holder arc above the total supply, the layer gets its hub
        roomy = edited(net, {(job(1), dummy(2)): F(10)})
        assert ("hub", 0) in roomy.index.number
        saturated, flow = max_flow_saturates(roomy)
        assert saturated and flow.flow == {
            (SOURCE, job(1)): 1,
            (SOURCE, job(4)): 1,
            (job(1), dummy(2)): 1,
            (job(4), dummy(2)): 1,
            (dummy(2), job(2)): 2,
            (job(2), SINK): 2,
        }

    def test_hub_flow_maps_back_without_cycles(self):
        # a flow on an index: job 2 passes its own dummy (2, 0) through hub 0
        # (step 1 cancels that, so the split does not pair job 1 with
        # (2, 0)), jobs 1 and 4 share hub 0's outflow to dummy (3, 0)
        # (step 2 splits it), and jobs 5 and 6 carry a cycle through
        # dummies (6, 1) and (5, 2) (step 3 cancels it)
        hub = ("hub", 0)
        index_flow = {
            (SOURCE, job(1)): F(1),
            (SOURCE, job(4)): F(1),
            (SOURCE, job(7)): F(1, 2),
            (job(1), hub): F(1),
            (job(2), hub): F(1),
            (job(4), hub): F(1),
            (hub, dummy(2)): F(1),
            (hub, dummy(3)): F(2),
            (dummy(2), job(2)): F(1),
            (dummy(3), job(3)): F(2),
            (job(5), dummy(6, 1)): F(1, 2),
            (job(7), dummy(6, 1)): F(1, 2),
            (dummy(6, 1), job(6)): F(1),
            (job(6), dummy(5, 2)): F(1, 2),
            (dummy(5, 2), job(5)): F(1, 2),
            (job(3), SINK): F(2),
            (job(6), SINK): F(1, 2),
        }
        flow = network_flow(index_flow)
        assert flow == {
            (SOURCE, job(1)): 1,
            (SOURCE, job(4)): 1,
            (SOURCE, job(7)): F(1, 2),
            (job(1), dummy(3)): 1,
            (job(4), dummy(3)): 1,
            (dummy(3), job(3)): 2,
            (job(7), dummy(6, 1)): F(1, 2),
            (dummy(6, 1), job(6)): F(1, 2),
            (job(3), SINK): 2,
            (job(6), SINK): F(1, 2),
        }
        assert list(flow) == sorted(flow)
        result = FlowResult(F(5, 2), flow)
        assert without_cycles(result) == result

    def test_demand_job_passes_no_flow_on(self):
        # supply job 1 reaches demand job 2, which holds an interval of
        # demand job 3: the arc 2 -> (3, 1) is not in the solved network,
        # so job 2's sink arc is the cut
        inf = F(10)
        arcs = {
            (SOURCE, job(1)): F(2),
            (job(1), dummy(2)): inf,
            (dummy(2), job(2)): F(2),
            (job(2), dummy(3, 1)): inf,
            (dummy(3, 1), job(3)): F(1),
            (job(2), SINK): F(1),
            (job(3), SINK): F(1),
        }
        net = network_from_arcs((F(0), F(1), F(2)), arcs, {1: F(2)}, {2: F(1), 3: F(1)})
        assert ("hub", 1) in net.index.number
        saturated, flow = max_flow_saturates(net)
        assert not saturated and flow.value == 1
        assert flow.cut == {SOURCE, job(1), dummy(2), job(2)}
        assert check_min_cut(net, flow) == [] and verify_flow_feasible(net, flow) == []

    def test_sweep_networks_get_one_hub_per_interval(self, pair_traces):
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(5, 2)))
        hubs = sorted(v for v in net.index.vertices if v[0] == "hub")
        intervals = sorted({u[2] for u, _ in net.arcs if u[0] == "dummy"})
        assert hubs == [("hub", l) for l in intervals]


class TestBetaMatrix:
    def test_pair_unique_path(self, pair_traces):
        alg, opt = pair_traces
        t = F(5, 2)
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, t))
        _, flow = max_flow_saturates(net)
        beta = decompose_beta(flow)
        assert beta.values == {(1, 2): F(1, 2)}
        assert beta.discarded_cycle_flow == 0
        graph = build_borrow_graph(alg, t)
        assert check_beta_properties(beta, graph, alg.instance, point_at(alg, opt, t)) == []

    def test_zero_flow_all_zero(self, pair_traces):
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, 0))
        _, flow = max_flow_saturates(net)
        beta = decompose_beta(flow)
        assert beta.values == {}

    def test_bumped_column_fails(self, pair_traces):
        alg, opt = pair_traces
        t = F(5, 2)
        graph = build_borrow_graph(alg, t)
        bumped = BetaMatrix(values={(1, 2): F(3, 2)})
        violations = check_beta_properties(bumped, graph, alg.instance, point_at(alg, opt, t))
        assert any("column sum" in v for v in violations)
        assert any("row sum" in v for v in violations)

    def test_refinement_preserves_beta(self, pair_traces):
        alg, opt = pair_traces
        t = F(5, 2)
        sweep = NetworkSweep(alg)
        net = build_flow_network(sweep, point_at(alg, opt, t))
        _, flow = max_flow_saturates(net)
        beta = decompose_beta(flow)
        refined_net = build_flow_network(sweep, point_at(alg, opt, t), refined=True)
        refined_flow = refine_flow(net, flow, refined_net)
        assert len(refined_net.time_points) == 2 * len(net.time_points) - 1
        assert verify_flow_feasible(refined_net, refined_flow) == []
        assert refined_flow.value == flow.value
        assert decompose_beta(refined_flow).values == beta.values


def job(i):
    return ("job", i)


def dummy(i, l=0):
    return ("dummy", i, l)



class TestPathDecomposition:
    def test_cycle_cancelled_before_the_path(self):
        # job 1 sends 1 to demand job 3, and 1/2 around the cycle 1 -> 2 -> 1;
        # the walk takes the smaller dummy (2, 0) first, meets job 1 again,
        # cancels the cycle and then peels the path through (3, 0)
        flow = {
            (SOURCE, job(1)): F(1),
            (job(1), dummy(2)): F(1, 2),
            (dummy(2), job(2)): F(1, 2),
            (job(2), dummy(1)): F(1, 2),
            (dummy(1), job(1)): F(1, 2),
            (job(1), dummy(3)): F(1),
            (dummy(3), job(3)): F(1),
            (job(3), SINK): F(1),
        }
        beta = decompose_beta(FlowResult(F(1), flow))
        assert beta.values == {(1, 3): 1}
        assert beta.discarded_cycle_flow == F(1, 2)

    def test_stuck_walk_discards_its_flow(self):
        # job 4's flow ends at job 5, which absorbs nothing: the walk stops
        # there, and the job-to-job amount left is discarded
        flow = {
            (SOURCE, job(1)): F(1),
            (job(1), dummy(3)): F(1),
            (dummy(3), job(3)): F(1),
            (job(3), SINK): F(1),
            (SOURCE, job(4)): F(1),
            (job(4), dummy(5)): F(1),
            (dummy(5), job(5)): F(1),
        }
        beta = decompose_beta(FlowResult(F(2), flow))
        assert beta.values == {(1, 3): 1}
        assert beta.discarded_cycle_flow == 1

    def test_walk_restarts_where_every_head_is_empty(self):
        # job 1's only outgoing flow is a cycle back to it, below its supply:
        # cancelling the cycle empties job 1's one head, and the restarted
        # walk must stop there.  A flow that conserves never leaves a walk at
        # a vertex with no flow out, so only such an input reaches this
        flow = {
            (SOURCE, job(1)): F(1),
            (job(1), dummy(2)): F(1, 2),
            (dummy(2), job(2)): F(1, 2),
            (job(2), dummy(1)): F(1, 2),
            (dummy(1), job(1)): F(1, 2),
        }
        beta = decompose_beta(FlowResult(F(1), flow))
        assert beta.values == {}
        assert beta.discarded_cycle_flow == F(1, 2)


    def test_isolated_cycle_counts_once_per_job_to_job_amount(self):
        # no walk reaches the cycle 4 -> 5 -> 4, so all of it is left over:
        # 1/2 on each of its two job-to-job amounts, where the vertex-level
        # peeling counted 1/2 on each of its four arcs
        flow = {
            (SOURCE, job(1)): F(1),
            (job(1), dummy(3)): F(1),
            (dummy(3), job(3)): F(1),
            (job(3), SINK): F(1),
            (job(4), dummy(5)): F(1, 2),
            (dummy(5), job(5)): F(1, 2),
            (job(5), dummy(4)): F(1, 2),
            (dummy(4), job(4)): F(1, 2),
        }
        beta = decompose_beta(FlowResult(F(1), flow))
        assert beta.values == {(1, 3): 1}
        assert beta.discarded_cycle_flow == 1
        assert decompose_beta_by_vertex(FlowResult(F(1), flow)).discarded_cycle_flow == 2

    def test_job_level_peeling_matches_the_vertex_level_one(self):
        cyclic = []

        @settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @given(verifier_networks(), st.integers(0, 2**32 - 1))
        def check(net, seed):
            cyclic.append(assert_peelings_agree(net, seed))

        check()
        assert sum(cyclic) >= CYCLIC_FLOOR

    def test_job_level_peeling_matches_on_corpus_witnesses(self):
        # 28 of the depth-first witnesses of these event-time networks
        # carry a cycle
        cyclic = 0
        for seed in ORACLE_SEEDS:
            alg, opt = trace_pair(corpus_instance(seed))
            sweep = NetworkSweep(alg)
            for t in check_times(alg, opt)[0]:
                cyclic += assert_peelings_agree(build_flow_network(sweep, point_at(alg, opt, t)), seed)
        assert cyclic >= CYCLIC_FLOOR


def assert_peelings_agree(net, seed):
    """The same beta and the same ``path_decomposition`` verdict from the
    job-level and the vertex-level peeling, on the witnesses of both
    solvers; the depth-first one may carry cycles.  Returns whether it
    does."""
    _, other = max_flow_depth_first(net, seed)
    for flow in (max_flow_saturates(net)[1], other):
        beta, reference = decompose_beta(flow), decompose_beta_by_vertex(flow)
        assert beta.values == reference.values
        assert (beta.discarded_cycle_flow == 0) == (reference.discarded_cycle_flow == 0)
    return carries_cycle(other)


class TestIntegerKernels:
    """The flow audit and the peel compute on ints over one common
    denominator; their references compute on the amounts as given."""

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(audited_flows())
    def test_audit_and_peel_match_their_references(self, case):
        net, result = case
        assert verify_flow_feasible(net, result) == verify_flow_feasible_on_rats(net, result)
        assert result.job_totals() == job_totals_on_rats(result)
        beta = decompose_beta(result)
        assert (beta.values, beta.discarded_cycle_flow) == astuple(decompose_beta_on_rats(result))
        assert all(type(v) is Rat for v in [*beta.values.values(), beta.discarded_cycle_flow])
        if passes_through_dummies(result.flow):
            reference = decompose_beta_by_vertex(result)
            assert beta.values == reference.values
            assert (beta.discarded_cycle_flow == 0) == (reference.discarded_cycle_flow == 0)


def passes_through_dummies(flow):
    """Whether every amount is nonnegative, every arc runs from the source
    to a job, from a job to a dummy, from a dummy to its own job or from a
    job to the sink, and every dummy passes on all it takes in: the flows
    on which the vertex-level peel walks the job-level one's paths."""
    net = {}
    for (u, v), f in flow.items():
        along = (u[0], v[0]) in (("source", "job"), ("job", "dummy"), ("job", "sink"))
        if f < 0 or not (along or u[0] == "dummy" and v == job(u[1])):
            return False
        for w, sign in ((u, -1), (v, 1)):
            if w[0] == "dummy":
                net[w] = net.get(w, 0) + sign * f
    return not any(net.values())


class TestSegments:
    def test_no_candidates_no_segments(self, pair_traces):
        alg, opt = pair_traces
        count, violations = compute_segments(alg.instance, point_at(alg, opt, F(1, 4)))
        # both jobs alive in the optimum as well: nothing to partition
        assert (count, violations) == (0, [])

    def test_single_segment_when_all_dominate_alike(self):
        inst = Instance((Job(1, 0, 4), Job(2, 0, 4), Job(3, 0, 4)), F(1, 2))
        alg, _ = simulate(inst, PolicyKind.ALPHA)
        opt, _ = simulate(inst, PolicyKind.SRPT)
        count, violations = compute_segments(alg.instance, point_at(alg, opt, F(3)))
        assert count <= len(opt.alive_at(F(3))) + 1
        assert violations == []

    @pytest.mark.parametrize("seed", range(12))
    def test_corpus_segment_count_bound(self, seed):
        inst = corpus_instance(seed + 1)
        alg, _ = simulate(inst, PolicyKind.ALPHA)
        opt, _ = simulate(inst, PolicyKind.SRPT)
        for t in alg.event_times():
            count, violations = compute_segments(alg.instance, point_at(alg, opt, t))
            assert violations == []
            assert count <= len(opt.alive_at(t)) + 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arbitrary_time_points())
    def test_lemma_holds_for_any_time_point(self, case):
        # the dominated sets are down-sets of one total preorder, whatever the
        # work, partition and O(t): the check cannot fire
        inst, point = case
        count, violations = compute_segments(inst, point)
        assert violations == []
        assert count <= len(point.opt_alive) + 1


def bound_point(fresh: int, signalled: int, opt_job_alive: bool = False, opt_alive=(0,)) -> TimePoint:
    """A hand-built time point at t = 1: O(t) = opt_alive, and the algorithm
    has the given numbers of unsignalled and signalled alive jobs outside
    it, plus optimum job 0 if opt_job_alive (on the unsignalled side)."""
    unsignalled = set(range(1, 1 + fresh)) | ({0} if opt_job_alive else set())
    clair = frozenset(range(100, 100 + signalled))
    part = Partition(frozenset(unsignalled) | clair, frozenset(unsignalled), clair)
    return TimePoint(F(1), {}, part, frozenset(opt_alive))


# alpha and c = ceil(1/(1 - alpha)); at 1/3 the factor 3/2 is rounded up
ALPHA_C = [(F(1, 2), 2), (F(2, 3), 3), (F(1, 3), 2)]


class TestLocalBounds:
    def test_pair_at_five_halves(self, pair_traces):
        alg, opt = pair_traces
        counts, violations = check_local_bounds(alg.instance.alpha, point_at(alg, opt, F(5, 2)))
        assert violations == []
        assert counts["alive_minus_opt"] == 1

    def test_vacuous_when_optimum_idle(self, pair_traces):
        alg, opt = pair_traces
        counts, violations = check_local_bounds(alg.instance.alpha, point_at(alg, opt, F(100)))
        assert violations == []
        assert counts["alive"] == 0

    def test_factor_rounded_up_off_the_integer_grid(self):
        # 1/(1 - 1/3) = 3/2 counts as c = 2: 4 = 2 + c unsignalled jobs pass
        alpha = F(1, 3)
        assert check_local_bounds(alpha, bound_point(4, 0))[1] == []
        assert check_local_bounds(alpha, bound_point(5, 0))[1] == [
            "|unsignalled_minus_opt| = 5 exceeds 4/1 at t=1/1"
        ]

    def test_counts(self):
        counts, _ = check_local_bounds(F(1, 2), bound_point(2, 3, opt_job_alive=True))
        assert counts == {
            "alive": 6,
            "alive_minus_opt": 5,
            "unsignalled_minus_opt": 2,
            "signalled_minus_opt": 3,
            "opt_alive": 1,
        }

    @pytest.mark.parametrize("alpha, c", ALPHA_C)
    def test_unsignalled_bound_fires_one_past(self, alpha, c):
        assert check_local_bounds(alpha, bound_point(2 + c, 0))[1] == []
        assert check_local_bounds(alpha, bound_point(3 + c, 0))[1] == [
            f"|unsignalled_minus_opt| = {3 + c} exceeds {2 + c}/1 at t=1/1"
        ]

    @pytest.mark.parametrize("alpha, c", ALPHA_C)
    def test_signalled_bound_fires_one_past(self, alpha, c):
        assert check_local_bounds(alpha, bound_point(0, 1 + c))[1] == []
        assert check_local_bounds(alpha, bound_point(0, 2 + c))[1] == [
            f"|signalled_minus_opt| = {2 + c} exceeds {1 + c}/1 at t=1/1"
        ]

    @pytest.mark.parametrize("alpha, c", ALPHA_C)
    def test_alive_minus_opt_bound_fires_one_past(self, alpha, c):
        # (3 + 2c) = (2 + c) + (1 + c): one past it, a side's bound fires too
        assert check_local_bounds(alpha, bound_point(2 + c, 1 + c))[1] == []
        assert check_local_bounds(alpha, bound_point(2 + c, 2 + c))[1] == [
            f"|alive_minus_opt| = {4 + 2 * c} exceeds {3 + 2 * c}/1 at t=1/1",
            f"|signalled_minus_opt| = {2 + c} exceeds {1 + c}/1 at t=1/1",
        ]

    @pytest.mark.parametrize("alpha, c", ALPHA_C)
    def test_alive_bound_fires_one_past(self, alpha, c):
        # with |O(t)| = 1 the optimum's job is the only alive job inside O(t)
        assert check_local_bounds(alpha, bound_point(2 + c, 1 + c, opt_job_alive=True))[1] == []
        assert check_local_bounds(alpha, bound_point(2 + c, 2 + c, opt_job_alive=True))[1] == [
            f"|alive_minus_opt| = {4 + 2 * c} exceeds {3 + 2 * c}/1 at t=1/1",
            f"|signalled_minus_opt| = {2 + c} exceeds {1 + c}/1 at t=1/1",
            f"|alive| = {5 + 2 * c} exceeds {4 + 2 * c}/1 at t=1/1",
        ]

    @pytest.mark.parametrize("alpha, c", ALPHA_C)
    def test_idle_optimum(self, alpha, c):
        assert check_local_bounds(alpha, bound_point(0, 0, opt_alive=()))[1] == []
        assert check_local_bounds(alpha, bound_point(1, 0, opt_alive=()))[1] == [
            "|alive_minus_opt| = 1 exceeds 0/1 at t=1/1",
            "|unsignalled_minus_opt| = 1 exceeds 0/1 at t=1/1",
            "|alive| = 1 exceeds 0/1 at t=1/1",
            "optimum idle but algorithm has [1] alive at t=1/1",
        ]


class TestVerify:
    @pytest.mark.parametrize("seed", [1, 2, 3, 10, 11, 12])
    def test_corpus_instances_pass(self, seed):
        report = verify_instance(corpus_instance(seed))
        assert report.ok, report.first_failure

    @pytest.mark.parametrize(
        "n, alpha",
        [(8, F(3, 5)), (10, F(1, 2)), (12, F(2, 5)), (14, F(2, 3)), (16, F(3, 4))],
    )
    def test_larger_instances_pass(self, n, alpha):
        # beyond the corpus's n <= 6; 3/5 and 2/5 sit off the integer
        # 1/(1 - alpha) grid, where the counting bounds round c up
        inst = gen_random_instance(n, max_p=8, density=0.8, seed=n, alpha=alpha)
        report = verify_instance(inst)
        assert report.ok, report.first_failure
        assert len(report.time_checks) > 4 * n

    @pytest.mark.parametrize("gen", [gen_det_lb1, gen_det_lb2])
    @pytest.mark.parametrize("alpha", [F(1, 2), F(2, 3)])
    def test_lower_bound_families_pass(self, gen, alpha):
        inst, _ = gen(alpha, 4)
        report = verify_instance(inst)
        assert report.ok, report.first_failure

    @pytest.mark.parametrize("m", [4, 8])
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("alpha", [F(1, 2), F(2, 3)])
    @pytest.mark.parametrize("gen", [gen_det_lb1, gen_det_lb2])
    def test_lower_bound_families_with_dos_tails_pass(self, gen, alpha, k, m):
        inst, t = gen(alpha, k)
        report = verify_instance(append_dos_tail(inst, t, m))
        assert report.ok, report.first_failure

    def test_random_n24_passes(self):
        report = verify_instance(gen_random_instance(24, 8, 0.8, 24))
        assert report.ok, report.first_failure
        assert len(report.time_checks) > 4 * 24

    def test_random_n32_passes(self):
        report = verify_instance(gen_random_instance(32, 8, 0.8, 32))
        assert report.ok, report.first_failure
        assert len(report.time_checks) > 4 * 32

    # sha256 of report.json, recorded before the max flow moved to one hub
    # per interval; both go beyond the corpus's n <= 6
    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                lambda: gen_random_instance(48, 8, 0.8, seed=48, alpha=F(1, 2)),
                "50ca4cf6b8d92991f108e959ba82b33eef2edc61c67f648d65f69670e29dfee4",
            ),
            (
                lambda: append_dos_tail(*gen_det_lb2(F(1, 2), 3), 50),
                "aba73409872c9afba1729e0f1595a651670351f0f48d2fa6d7fac0de188eadb7",
            ),
            # recorded before the reachability-closure check read who ran
            # inside a lifetime from the trace's segments
            (
                lambda: append_dos_tail(*gen_det_lb2(F(1, 2), 3), 200),
                "a3ce57bc43dfebb154ee844b3f3b590c36522a1f72191c1b9ca98d3a986eb107",
            ),
            # recorded before the verifier carried its per-time state
            # across the check times
            (
                lambda: append_dos_tail(*gen_det_lb2(F(1, 2), 3), 400),
                "a2dd0f6d3446cbc9a6c50861094518912ca6ee5d32dfbbc80e4756a47c7c3740",
            ),
        ],
        ids=["random_n48", "lb2_k3_dos50", "lb2_k3_dos200", "lb2_k3_dos400"],
    )
    def test_large_reports_are_pinned(self, make, digest):
        report = verify_instance(make())
        assert report.ok, report.first_failure
        assert hashlib.sha256(report_bytes(report)).hexdigest() == digest

    def test_max_flow_below_supply_names_the_cut(self, pair_instance, monkeypatch):
        # starve job 2's dummies in the base network at the event time 2:
        # the report names the jobs on the source side of the min cut
        import alphasched.analysis as analysis

        build = analysis.build_flow_network

        def starved(sweep, point, refined=False):
            net = build(sweep, point, refined)
            if point.t == 2 and not refined:
                starve = {(u, v): F(1, 8) for u, v in net.arcs if v == ("job", 2) and u[0] == "dummy"}
                net = edited(net, starve)
            return net

        monkeypatch.setattr(analysis, "build_flow_network", starved)
        report = verify_instance(pair_instance)
        assert not report.ok
        assert report.first_failure == {
            "t": "2/1",
            "check": "max_flow",
            "violations": ["max flow 1/8 below supply 1/1 at t=2/1: min cut source side holds jobs [1]"],
        }

    def test_traces_of_two_instances_rejected(self, pair_traces):
        alg, _ = pair_traces
        other, _ = simulate(Instance((Job(1, 0, 2), Job(3, 0, 2)), F(1, 2)), PolicyKind.SRPT)
        with pytest.raises(ModelError, match="share one instance"):
            verify_traces(alg, other)
        with pytest.raises(ModelError, match="share one instance"):
            next(TimePoint.sweep(alg, other, [1]))
        # the same ids with other releases and processing times
        a = Instance((Job(1, 0, 2), Job(2, 0, 3)), F(1, 2))
        b = Instance((Job(1, 0, 5), Job(2, 1, 1)), F(1, 2))
        with pytest.raises(ModelError, match="share one instance"):
            verify_traces(simulate(a, PolicyKind.ALPHA)[0], simulate(b, PolicyKind.SRPT)[0])

    def test_no_switch_turns_a_check_off(self, pair_instance):
        for switch in ("flow_checks", "refinement"):
            with pytest.raises(TypeError):
                verify_instance(pair_instance, **{switch: False})

    def test_adaptive_instance_passes(self):
        from alphasched.adversary import gen_det_lb1

        inst, _ = gen_det_lb1(F(1, 2), 3)
        report = verify_instance(inst)
        assert report.ok, report.first_failure

    def test_corrupt_trace_fails(self, pair_instance):
        # an even share through both signals: after t = 2 both jobs are
        # clairvoyant, so a single-job branch would run one job alone
        segments = [
            ExecutionSegment(0, 2, ((1, F(1, 2)), (2, F(1, 2)))),
            ExecutionSegment(2, 4, ((1, F(1, 2)), (2, F(1, 2)))),
        ]
        bad = ScheduleTrace(pair_instance, segments)
        opt, _ = simulate(pair_instance, PolicyKind.SRPT)
        report = verify_traces(bad, opt)
        assert not report.ok
        assert report.first_failure == {
            "check": "branch_observations",
            "violations": ["single-job branch at 2/1 rated [1, 2]"],
        }
        assert report.trace_checks["clairvoyant_runs_block"]
        assert report.trace_checks["catch_up"] == []

    def test_starved_job_breaks_catch_up(self, pair_instance):
        # starve job 2 of its fair share: job 1 runs alone on [0, 1), job 2
        # on [1, 3), job 1 again on [3, 4)
        segments = [
            ExecutionSegment(0, 1, ((1, F(1)),)),
            ExecutionSegment(1, 3, ((2, F(1)),)),
            ExecutionSegment(3, 4, ((1, F(1)),)),
        ]
        bad = ScheduleTrace(pair_instance, segments)
        opt, _ = simulate(pair_instance, PolicyKind.SRPT)
        report = verify_traces(bad, opt)
        assert not report.ok
        assert report.trace_checks["catch_up"] == [
            "catch-up violated at 1/1: y_2=0/1 < y_1=1/1 after 1 ran",
            "catch-up violated at 3/2: y_2=1/2 < y_1=1/1 after 1 ran",
        ]
        assert report.first_failure == {
            "t": "1/2",
            "check": "direct_borrow_order",
            "violations": ["borrow edge (2,1,N) at t=1/2 with y_2=0/1 < y_1=1/2"],
        }
        assert check_catch_up(bad, check_times(bad, opt)[1]) == report.trace_checks["catch_up"]

    def test_report_serializes(self, pair_instance):
        import json

        report = verify_instance(pair_instance)
        blob = json.dumps(report.to_json(), sort_keys=True)
        assert '"ok": true' in blob


def mapped_segments(trace, scale, shift):
    return [ExecutionSegment(scale * s.start + shift, scale * s.end + shift, s.rates) for s in trace.segments]


def verdict(report, scale=F(1), shift=F(0)):
    """What a time shift and scale must keep: ok; the first failure's check
    and time; per trace check, its number of violations; and per check
    time from the first release on, the time, supply and max flow mapped
    back, the counts, the segment number and whether a check failed."""
    def back(text):
        return (parse_rat(text) - shift) / scale

    def amount(text):
        return None if text is None else parse_rat(text) / scale

    first_release = min(job.release for job in report.instance.jobs)
    entries = [
        (back(e["t"]), e.get("counts"), e["segments"], "violations" in e,
         amount(e.get("supply")), amount(e.get("max_flow")))
        for e in report.time_checks
        if parse_rat(e["t"]) >= first_release
    ]
    failure = report.first_failure
    if failure is not None:
        failure = (failure["check"], back(failure["t"]) if "t" in failure else None)
    return report.ok, failure, {name: len(v) for name, v in report.trace_checks.items()}, entries


class TestMetamorphic:
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(1, 500),
        scale=st.fractions(F(1, 8), 8, max_denominator=8),
        shift=st.fractions(0, 9, max_denominator=7),
        edit=st.integers(0, 40),
    )
    def test_time_shift_and_scale_keep_the_verdict(self, seed, scale, shift, edit):
        # r -> scale * r + shift and p -> scale * p: both traces map segment
        # by segment with their rates, and so does a trace edited by hand,
        # which often fails; the verifier's verdict, counts and segment
        # numbers stay, and its times and amounts map
        inst = corpus_instance(seed)
        image = Instance(
            tuple(Job(j.id, scale * j.release + shift, scale * j.proc) for j in inst.jobs), inst.alpha
        )
        alg, opt = simulate_pair(inst)
        image_alg, image_opt = simulate_pair(image)
        for trace, image_trace in ((alg, image_alg), (opt, image_opt)):
            assert list(image_trace.segments) == mapped_segments(trace, scale, shift)
            for times, image_times in (
                (trace.completions, image_trace.completions), (trace.emissions, image_trace.emissions)
            ):
                assert image_times == {j: scale * t + shift for j, t in times.items()}
        edits = list(trace_edits(alg.csv_rows()))
        if edit < len(edits):
            _, rows, cut = edits[edit]
            horizon = alg.makespan if cut else None
            try:
                alg = ScheduleTrace.from_csv_rows(alg.instance, rows, horizon)
            except ModelError:
                pass
            else:
                image_horizon = None if horizon is None else scale * horizon + shift
                image_alg = ScheduleTrace(image, mapped_segments(alg, scale, shift), image_horizon)
        assert verdict(verify_traces(image_alg, image_opt), scale, shift) == verdict(verify_traces(alg, opt))


class TestTraceObservations:
    def test_branch_observations_on_worked_example(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        assert check_branch_observations(trace) == []

    def test_signalled_run_blocks(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        assert check_clairvoyant_runs_block(trace) == []

    def test_blocking_violation_detected(self, pair_instance):
        # run job 1 past its signal, then give job 2 work before 1 completes
        segments = [
            ExecutionSegment(0, F(3, 2), ((1, F(1)),)),
            ExecutionSegment(F(3, 2), F(5, 2), ((2, F(1)),)),
            ExecutionSegment(F(5, 2), 3, ((1, F(1)),)),
            ExecutionSegment(3, 4, ((2, F(1)),)),
        ]
        bad = ScheduleTrace(pair_instance, segments)
        assert check_clairvoyant_runs_block(bad)

    def test_idle_gap_before_a_late_release_detected(self):
        # the machine idles on [1, 4), with job 2 alive from 3 on: only the
        # second half of the gap idles with an alive job
        inst = Instance((Job(1, 0, 1), Job(2, 3, 1)), F(1, 2))
        segments = [ExecutionSegment(0, 1, ((1, F(1)),)), ExecutionSegment(4, 5, ((2, F(1)),))]
        bad = ScheduleTrace(inst, segments)
        expected = ["machine idle on [1/1, 4/1] with alive jobs"]
        assert check_feasibility(bad) == expected
        opt, _ = simulate(inst, PolicyKind.SRPT)
        assert verify_traces(bad, opt).trace_checks["feasibility_alg"] == expected

    def test_segment_without_rates_idles(self):
        inst = Instance((Job(1, 0, 1), Job(2, 3, 1)), F(1, 2))
        segments = [
            ExecutionSegment(0, 1, ((1, F(1)),)),
            ExecutionSegment(1, 4, ()),
            ExecutionSegment(4, 5, ((2, F(1)),)),
        ]
        bad = ScheduleTrace(inst, segments)
        assert check_feasibility(bad) == ["machine idle on [1/1, 4/1] with alive jobs"]


# the report names of the per-time checks in run order, and of the trace
# checks, which run after every time
TIME_CHECKS = [
    "direct_borrow_order",
    "reachability_closure",
    "local_bounds",
    "segments",
    "max_flow",
    "min_cut",
    "flow_feasible",
    "flow_reachability",
    "path_decomposition",
    "beta_properties",
    "refined_flow_feasible",
    "refinement_direct_flow",
    "refinement_beta",
]
TRACE_CHECKS = ["feasibility_alg", "feasibility_opt", "catch_up", "branch_observations", "clairvoyant_runs_block"]


def push(flow, walk, amount):
    """Add amount to the flow on every arc of the vertex walk."""
    for arc in zip(walk, walk[1:]):
        flow[arc] = flow.get(arc, 0) + amount


class TestNamedChecks:
    def test_checks_run_in_one_order(self, pair_traces, monkeypatch):
        alg, opt = pair_traces

        def names(t, event):
            point = point_at(alg, opt, t)
            graph = build_borrow_graph(alg, t)
            return [name for name, _ in checks_at(alg, point, graph, NetworkSweep(alg), event, {})]

        assert names(F(5, 2), False) == TIME_CHECKS[:4]
        assert names(F(2), True) == [name for name in TIME_CHECKS if name != "min_cut"]
        # below supply: the cut certificate, and no check that reads beta
        build = analysis.build_flow_network

        def starved(sweep, point, refined=False):
            return edited(build(sweep, point, refined), {(dummy(2), job(2)): F(1, 8)})

        monkeypatch.setattr(analysis, "build_flow_network", starved)
        assert names(F(2), True) == TIME_CHECKS[: TIME_CHECKS.index("flow_reachability") + 1]
        assert list(verify_traces(alg, opt).trace_checks) == TRACE_CHECKS

    def test_max_flow_names_the_source_side(self, pair_traces):
        alg, opt = pair_traces
        net = build_flow_network(NetworkSweep(alg), point_at(alg, opt, F(5, 2)))
        _, flow = max_flow_saturates(net)
        assert check_max_flow(net, flow, F(5, 2)) == []
        net = edited(net, {(dummy(2), job(2)): F(1, 8)})
        _, flow = max_flow_saturates(net)
        assert check_max_flow(net, flow, F(5, 2)) == [
            "max flow 1/8 below supply 1/2 at t=5/2: min cut source side holds jobs [1]"
        ]

    def test_flow_reachability_compares_steps_with_borrow_edges(self):
        # supply job 1 reaches demand job 2 in the network, and demand job 3
        # not at all
        arcs = {
            (SOURCE, job(1)): F(1),
            (job(1), dummy(2)): F(3),
            (dummy(2), job(2)): F(1),
            (job(2), SINK): F(1),
            (job(3), SINK): F(1),
        }
        net = network_from_arcs((F(0), F(1)), arcs, {1: F(1)}, {2: F(1), 3: F(1)})
        same = BorrowGraph((1, 2, 3), frozenset({(1, 2, "N")}))
        assert check_flow_reachability(net, same, F(1)) == []
        crossed = BorrowGraph((1, 2, 3), frozenset({(1, 3, "C")}))
        assert check_flow_reachability(net, crossed, F(1)) == [
            "positive-capacity reachability and borrow reachability disagree for (1,2) at t=1/1",
            "positive-capacity reachability and borrow reachability disagree for (1,3) at t=1/1",
        ]

    def test_path_decomposition_rejects_cycle_flow(self):
        assert check_path_decomposition(BetaMatrix({(1, 2): F(1)})) == []
        assert check_path_decomposition(BetaMatrix({(1, 2): F(1)}, F(1, 3))) == [
            "path decomposition discarded cycle flow 1/3"
        ]

    def test_refinement_direct_flow_compares_job_totals(self):
        net = network_from_arcs((F(0), F(1)), {}, {1: F(1)}, {2: F(1), 3: F(1)})
        flow = FlowResult(F(1), {(job(1), dummy(2)): F(1)})
        halves = FlowResult(F(1), {(job(1), dummy(2, 0)): F(1, 2), (job(1), dummy(2, 1)): F(1, 2)})
        assert check_refinement_direct_flow(net, flow, halves) == []
        moved = FlowResult(F(1), {(job(1), dummy(2, 0)): F(1, 2), (job(1), dummy(3, 1)): F(1, 2)})
        assert check_refinement_direct_flow(net, flow, moved) == [
            "refinement changed direct flow (1,2): 1/1 -> 1/2",
            "refinement changed direct flow (1,3): 0/1 -> 1/2",
        ]

    def test_refinement_beta_compares_the_matrices(self):
        beta = BetaMatrix({(1, 2): F(1)})
        assert check_refinement_beta(beta, BetaMatrix({(1, 2): F(1)}), F(5, 2)) == []
        split = BetaMatrix({(1, 2): F(1, 2), (1, 3): F(1, 2)})
        assert check_refinement_beta(beta, split, F(5, 2)) == [
            "refinement changed the borrowing matrix at t=5/2"
        ]

    def test_network_without_steps_trips_flow_reachability(self, pair_instance, monkeypatch):
        # the network still routes job 1's surplus to demand job 2, but its
        # steps no longer say that job 1 reaches job 2
        build = analysis.build_flow_network
        monkeypatch.setattr(
            analysis,
            "build_flow_network",
            lambda sweep, point, refined=False: replace(build(sweep, point, refined), steps=frozenset()),
        )
        assert verify_instance(pair_instance).first_failure == {
            "t": "2/1",
            "check": "flow_reachability",
            "violations": [
                "positive-capacity reachability and borrow reachability disagree for (1,2) at t=2/1"
            ],
        }

    def test_cycle_in_the_witness_flow_trips_path_decomposition(self, monkeypatch):
        # corpus seed 1 at t = 5: the cycle through jobs 1 and 2, neither a
        # demand job, fits in the capacities, so the flow stays feasible
        solve = analysis.max_flow_saturates

        def with_cycle(net):
            saturated, flow = solve(net)
            if net.time_points[-1] == 5:
                cyclic = dict(flow.flow)
                push(cyclic, [job(1), dummy(2, 2), job(2), dummy(1, 3), job(1)], F(1, 3))
                flow = replace(flow, flow=cyclic)
            return saturated, flow

        monkeypatch.setattr(analysis, "max_flow_saturates", with_cycle)
        assert verify_instance(corpus_instance(1)).first_failure == {
            "t": "5/1",
            "check": "path_decomposition",
            "violations": ["path decomposition discarded cycle flow 1/3"],
        }

    @pytest.mark.parametrize(
        "inst, t, walk, amount, check, first",
        [
            # half of job 1's flow into job 2's first refined dummy goes missing
            (
                Instance((Job(1, 0, 2), Job(2, 0, 2)), F(1, 2)),
                2,
                [job(1), dummy(2, 0)],
                F(1, 2),
                "refined_flow_feasible",
                "conservation violated at ('job', 1): net 1/2",
            ),
            # a whole source-to-sink path of the direct flow (1, 2) goes missing
            (
                Instance((Job(1, 0, 2), Job(2, 0, 2)), F(1, 2)),
                2,
                [SOURCE, job(1), dummy(2, 0), job(2), SINK],
                F(1, 2),
                "refinement_direct_flow",
                "refinement changed direct flow (1,2): 1/1 -> 1/2",
            ),
            # corpus seed 4 at t = 8: a path from supply job 4 through job 2,
            # neither supply nor demand, to demand job 3 goes missing, so no
            # (supply, demand) direct flow moves but beta(4, 3) does
            (
                corpus_instance(4),
                8,
                [SOURCE, job(4), dummy(2, 5), job(2), dummy(3, 3), job(3), SINK],
                F(1, 2),
                "refinement_beta",
                "refinement changed the borrowing matrix at t=8/1",
            ),
        ],
    )
    def test_refinement_that_loses_flow_trips_a_refinement_check(
        self, monkeypatch, inst, t, walk, amount, check, first
    ):
        refine = analysis.refine_flow

        def lossy(net, flow, refined):
            carried = refine(net, flow, refined)
            if net.time_points[-1] == t:
                lost = dict(carried.flow)
                push(lost, walk, -amount)
                carried = replace(carried, flow=lost)
            return carried

        monkeypatch.setattr(analysis, "refine_flow", lossy)
        failure = verify_instance(inst).first_failure
        assert (failure["t"], failure["check"], failure["violations"][0]) == (format_rat(F(t)), check, first)


def checks_with_refined_flow(pair_traces, monkeypatch, edits=()):
    """``checks_at`` on the pair at event time 2, where the base flow sends
    1 from supply job 1 to demand job 2, with each (walk, amount) of
    ``edits`` pushed in the refined flow: the checks by report name, and the
    number of flows peeled."""
    alg, opt = pair_traces
    refine, peel = analysis.refine_flow, analysis.decompose_beta
    peeled = []

    def edited_refinement(net, flow, refined):
        carried = refine(net, flow, refined)
        moved = dict(carried.flow)
        for walk, amount in edits:
            push(moved, walk, amount)
        return replace(carried, flow=moved)

    def counted(flow):
        peeled.append(flow)
        return peel(flow)

    monkeypatch.setattr(analysis, "refine_flow", edited_refinement)
    monkeypatch.setattr(analysis, "decompose_beta", counted)
    point = point_at(alg, opt, 2)
    checks = dict(checks_at(alg, point, build_borrow_graph(alg, 2), NetworkSweep(alg), True, {}))
    return checks, len(peeled)


class TestRefinedPeel:
    """``checks_at`` peels the refined flow only where its peel input (its
    source, sink and job-to-job amounts) differs from the base flow's."""

    def test_refined_flow_that_peels_alike_keeps_beta(self, pair_traces, monkeypatch):
        # job 2, which absorbs, sends 1/2 into a dummy of job 1: the
        # job-level flow moves, and the walk from job 1 stops at job 2
        # before it, so the peel discards it and beta stays
        edits = [([job(2), dummy(1, 0)], F(1, 2))]
        checks, peeled = checks_with_refined_flow(pair_traces, monkeypatch, edits)
        assert checks["refinement_beta"] == []
        assert checks["refined_flow_feasible"] != [] and peeled == 2

    def test_refined_flow_that_peels_otherwise_changes_beta(self, pair_traces, monkeypatch):
        # half of the path from job 1 to job 2 goes missing
        edits = [([SOURCE, job(1), dummy(2, 0), job(2), SINK], F(-1, 2))]
        checks, peeled = checks_with_refined_flow(pair_traces, monkeypatch, edits)
        assert checks["refinement_beta"] == ["refinement changed the borrowing matrix at t=2/1"]
        assert peeled == 2

    def test_refined_flow_with_the_same_peel_input_is_not_peeled(self, pair_traces, monkeypatch):
        checks, peeled = checks_with_refined_flow(pair_traces, monkeypatch)
        assert all(violations == [] for violations in checks.values()) and peeled == 1
        # 1/4 moves from job 2's first half to its second: the job-level
        # flow stays, and the halves' capacities are broken
        edits = [([job(1), dummy(2, 0), job(2)], F(-1, 4)), ([job(1), dummy(2, 1), job(2)], F(1, 4))]
        checks, peeled = checks_with_refined_flow(pair_traces, monkeypatch, edits)
        assert checks["refined_flow_feasible"] != []
        assert checks["refinement_beta"] == [] and peeled == 1


class TestEveryViolationFires:
    """Violations no verifier run on a simulated pair produces, made to fire
    on hand-built inputs with their exact messages."""

    def flow_network(self, extra=()):
        # supply job 1 reaches demand job 2 through one dummy
        arcs = {
            (SOURCE, job(1)): F(1),
            (job(1), dummy(2)): F(3),
            (dummy(2), job(2)): F(2),
            (job(2), SINK): F(1),
            **dict(extra),
        }
        return network_from_arcs((F(0), F(1)), arcs, {1: F(1)}, {2: F(1)})

    def test_flow_audit_names_a_negative_flow(self):
        flow = {}
        push(flow, [SOURCE, job(1), dummy(2), job(2), SINK], F(-1))
        assert verify_flow_feasible(self.flow_network(), FlowResult(F(-1), flow)) == [
            "negative flow on ('source',)->('job', 1)",
            "negative flow on ('job', 1)->('dummy', 2, 0)",
            "negative flow on ('dummy', 2, 0)->('job', 2)",
            "negative flow on ('job', 2)->('sink',)",
        ]

    def test_flow_audit_names_a_missing_arc(self):
        flow = {}
        push(flow, [SOURCE, job(1), job(2), SINK], F(1))
        assert verify_flow_feasible(self.flow_network(), FlowResult(F(1), flow)) == [
            "flow on missing arc ('job', 1)->('job', 2)"
        ]

    def test_flow_audit_names_outflow_at_a_demand_job(self):
        # half a unit circles from demand job 2 back through job 1
        net = self.flow_network({(job(2), dummy(1)): F(3), (dummy(1), job(1)): F(1)})
        flow = {}
        push(flow, [SOURCE, job(1), dummy(2), job(2), SINK], F(1))
        push(flow, [job(2), dummy(1), job(1), dummy(2), job(2)], F(1, 2))
        assert verify_flow_feasible(net, FlowResult(F(1), flow)) == ["demand job 2 has outgoing flow 1/2"]

    @pytest.mark.parametrize(
        "values, cut, expected",
        [
            ({(1, 2): F(1, 2), (2, 1): F(-1)}, False, ["beta(2,1) negative"]),
            ({(1, 2): F(1, 4), (1, 1): F(1, 4)}, False, ["beta(1,1) positive outside supply x demand"]),
            ({(1, 2): F(1, 2)}, True, ["beta(1,2) positive but 2 unreachable from 1"]),
        ],
    )
    def test_beta_properties_name_each_entry(self, pair_traces, values, cut, expected):
        # at 5/2 job 1 is the one supply and job 2 the one demand
        alg, opt = pair_traces
        t = F(5, 2)
        graph = build_borrow_graph(alg, t)
        if cut:
            graph = BorrowGraph(graph.vertices, frozenset(e for e in graph.edges if e[:2] != (1, 2)))
        point = point_at(alg, opt, t)
        assert check_beta_properties(BetaMatrix(values), graph, alg.instance, point) == expected

    @pytest.fixture
    def apart(self):
        # job 1 lives on [0, 1] and job 2 on [2, 3]
        inst = Instance((Job(1, 0, 1), Job(2, 2, 1)), F(1, 2))
        return trace_pair(inst)

    def test_closure_names_a_lifetime_of_two_intervals(self, apart):
        alg, opt = apart
        graph = BorrowGraph((1, 2), frozenset({(1, 2, "N")}))
        assert check_reachability_closure(alg, graph, point_at(alg, opt, 3)) == [
            "lifetime of reachability set of 1 at t=3/1 is 2 intervals"
        ]

    def test_direct_borrow_order_on_a_hand_built_graph(self):
        # a graph given only its edges finds the heads of its N edges
        both = frozenset({1, 2})
        point = TimePoint(F(1), {1: F(0), 2: F(1, 2)}, Partition(both, both, frozenset()), frozenset())
        graph = BorrowGraph((1, 2), [(1, 2, "C"), (2, 1, "N"), (1, 2, "N")])
        assert check_direct_borrow_order(graph, point) == [
            "borrow edge (1,2,N) at t=1/1 with y_1=0/1 < y_2=1/2"
        ]

    def test_closure_names_a_lifetime_that_ends_before_t(self, apart):
        # a time point that calls job 1 alive at 3/2, after its completion at 1
        alg, _ = apart
        t = F(3, 2)
        ones = frozenset({1})
        point = TimePoint(t, alg.work_at(t), Partition(ones, ones, frozenset()), frozenset())
        assert check_reachability_closure(alg, build_borrow_graph(alg, t), point) == [
            "alive job 1: reachability lifetime ends at 1/1, not t"
        ]

    def test_blocking_names_a_signalled_job_that_completes_late(self):
        # a feasible trace, not the fused rule's: job 1 runs past its signal
        # at 1, then job 2 runs and completes at 5/2, before job 1 at 3
        inst = Instance((Job(1, 0, 2), Job(2, 0, 1)), F(1, 2))
        segments = [
            ExecutionSegment(0, F(3, 2), ((1, F(1)),)),
            ExecutionSegment(F(3, 2), F(5, 2), ((2, F(1)),)),
            ExecutionSegment(F(5, 2), 3, ((1, F(1)),)),
        ]
        trace = ScheduleTrace(inst, segments)
        assert check_feasibility(trace) == []
        assert check_clairvoyant_runs_block(trace) == [
            "job 1 ran signalled at 1/1 but completes after job 2",
            "job 2 received work during [1/1, 3/1] while signalled job 1 was pending",
        ]

    def test_blocking_tries_a_job_released_inside_a_segment(self):
        # job 1 (p 3) runs on [0, 2] and signals at 3/2; job 2, released at
        # 1, is alive at no segment start before it runs on [2, 3]
        inst = Instance((Job(1, 0, 3), Job(2, 1, 1)), F(1, 2))
        segments = [
            ExecutionSegment(0, 2, ((1, F(1)),)),
            ExecutionSegment(2, 3, ((2, F(1)),)),
            ExecutionSegment(3, 4, ((1, F(1)),)),
        ]
        assert check_clairvoyant_runs_block(ScheduleTrace(inst, segments)) == [
            "job 1 ran signalled at 3/2 but completes after job 2",
            "job 2 received work during [3/2, 4/1] while signalled job 1 was pending",
        ]

    def test_local_bounds_undefined_at_alpha_one(self):
        with pytest.raises(ModelError, match=r"^counting bounds are undefined at alpha = 1$"):
            check_local_bounds(F(1), bound_point(1, 0))
