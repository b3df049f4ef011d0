"""Property-based tests for the Boolean layer.

The load-bearing invariant of the whole dGPM machinery: symbolic reduction
(:meth:`EquationSystem.reduce`) computes exactly the greatest fixpoint as a
function of the external parameters, for *every* monotone system.  Its fast
paths (one substitution for an acyclic singleton, semi-naive Kleene rounds,
memoized ``variables()`` / ``n_terms`` / hash, ``substitute`` returning the
node a binding misses) are held to the plain algorithm kept below.
"""

import pickle
from itertools import product

from hypothesis import example, given, settings, strategies as st

from repro.boolean.expr import FALSE, TRUE, And, BoolExpr, Or, Var, conj, disj
from repro.boolean.system import EquationBlowupError, EquationSystem

INTERNAL = [f"x{i}" for i in range(4)]
INTERNAL_WIDE = [f"x{i}" for i in range(6)]
EXTERNAL = [f"p{i}" for i in range(3)]


def leaf_strategy():
    names = INTERNAL + EXTERNAL
    return st.one_of(
        st.sampled_from([TRUE, FALSE]),
        st.sampled_from(names).map(Var),
    )


def expr_strategy(depth: int = 2):
    if depth == 0:
        return leaf_strategy()
    sub = expr_strategy(depth - 1)
    return st.one_of(
        leaf_strategy(),
        st.lists(sub, min_size=2, max_size=3).map(conj),
        st.lists(sub, min_size=2, max_size=3).map(disj),
    )


@st.composite
def systems(draw) -> EquationSystem:
    n = draw(st.integers(min_value=1, max_value=4))
    return EquationSystem({INTERNAL[i]: draw(expr_strategy()) for i in range(n)})


@settings(max_examples=150, deadline=None)
@given(systems())
def test_reduce_equals_solve_for_all_valuations(system):
    reduced = system.reduce()
    externals = sorted(system.external_parameters())
    for values in product([False, True], repeat=len(externals)):
        env = dict(zip(externals, values))
        solved = system.solve(env)
        for name in system.variables():
            assert reduced[name].evaluate(env) == solved[name]


@settings(max_examples=150, deadline=None)
@given(expr_strategy(), st.dictionaries(st.sampled_from(INTERNAL + EXTERNAL), st.booleans()))
def test_substitution_consistent_with_evaluation(expr, partial):
    """Substituting constants then evaluating == evaluating directly."""
    remaining = expr.variables() - set(partial)
    full_env = dict(partial)
    for name in remaining:
        full_env[name] = True
    substituted = expr.evaluate_partial(partial)
    env_rest = {name: True for name in substituted.variables()}
    assert substituted.evaluate(env_rest) == expr.evaluate(full_env)


@settings(max_examples=150, deadline=None)
@given(expr_strategy())
def test_monotonicity(expr):
    """Flipping any input false -> true never flips the output true -> false."""
    names = sorted(expr.variables())
    if not names:
        return
    for values in product([False, True], repeat=len(names)):
        env = dict(zip(names, values))
        before = expr.evaluate(env)
        for name in names:
            if not env[name]:
                grown = dict(env)
                grown[name] = True
                assert expr.evaluate(grown) >= before


@settings(max_examples=100, deadline=None)
@given(expr_strategy())
def test_normalization_preserves_semantics(expr):
    """conj/disj rebuilding an expression keeps its truth table."""
    rebuilt = conj([expr])
    names = sorted(expr.variables())
    for values in product([False, True], repeat=min(len(names), 6)):
        env = dict(zip(names, values))
        for name in names[6:]:
            env[name] = False
        assert rebuilt.evaluate(env) == expr.evaluate(env)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_gfp_is_a_fixpoint(system):
    """solve() returns a genuine fixpoint of the equations."""
    externals = {name: True for name in system.external_parameters()}
    solved = system.solve(externals)
    env = {**externals, **solved}
    for name in system.variables():
        assert system.equation(name).evaluate(env) == solved[name]


# ----------------------------------------------------------------------
# the fast paths of reduce / substitute are exact
# ----------------------------------------------------------------------

def reference_reduce(system: EquationSystem, keep=None, max_terms: int = 4096):
    """The plain algorithm ``reduce`` must agree with: SCCs of a DiGraph,
    every component (acyclic singletons too) through a full Kleene loop
    that re-substitutes every equation every round."""
    from repro.graph.algorithms import tarjan_scc
    from repro.graph.digraph import DiGraph

    eqs = system.as_dict()
    wanted = set(eqs if keep is None else keep)
    internal = set(eqs)
    dep_graph = DiGraph({name: None for name in internal})
    for name, expr in eqs.items():
        for dep in expr.variables() & internal:
            dep_graph.add_edge(name, dep)
    reduced = {}
    for component in tarjan_scc(dep_graph):
        comp = set(component)
        local = {}
        for name in component:
            expr = eqs[name]
            binding = {v: reduced[v] for v in expr.variables() & internal if v not in comp}
            local[name] = expr.substitute(binding)
        current = {
            name: expr.substitute({v: TRUE for v in expr.variables() & comp})
            for name, expr in local.items()
        }
        for _ in range(len(component)):
            stable = True
            nxt = {}
            for name, expr in local.items():
                res = expr.substitute({v: current[v] for v in expr.variables() & comp})
                if res.n_terms > max_terms:
                    raise EquationBlowupError(name)
                nxt[name] = res
                if res != current[name]:
                    stable = False
            current = nxt
            if stable:
                break
        reduced.update(current)
    return {name: reduced[name] for name in wanted}


@st.composite
def cyclic_systems(draw) -> EquationSystem:
    """Up to six internal variables on a ring (one non-trivial SCC at
    least), with random chords, self-loops and external leaves."""
    n = draw(st.integers(min_value=1, max_value=6))
    names = INTERNAL_WIDE[:n]
    leaf = st.one_of(
        st.sampled_from([TRUE, FALSE]),
        st.sampled_from(names + EXTERNAL).map(Var),
    )
    sub = st.one_of(
        leaf,
        st.lists(leaf, min_size=2, max_size=3).map(conj),
        st.lists(leaf, min_size=2, max_size=3).map(disj),
    )
    eqs = {}
    for i, name in enumerate(names):
        ring = Var(names[(i + 1) % n])  # i -> i + 1; a self-loop when n == 1
        extra = draw(st.lists(sub, min_size=1, max_size=3))
        if draw(st.booleans()):
            extra.append(Var(name))  # self-loop
        build = conj if draw(st.booleans()) else disj
        eqs[name] = build([ring, *extra])
    return EquationSystem(eqs)


@st.composite
def acyclic_systems(draw) -> EquationSystem:
    """Up to six internal variables, each reading only later ones: every
    component is an acyclic singleton."""
    n = draw(st.integers(min_value=1, max_value=6))
    eqs = {}
    for i, name in enumerate(INTERNAL_WIDE[:n]):
        leaf = st.sampled_from(INTERNAL_WIDE[i + 1:n] + EXTERNAL).map(Var)
        parts = draw(st.lists(
            st.one_of(leaf, st.lists(leaf, min_size=2, max_size=3).map(disj)),
            min_size=1, max_size=3,
        ))
        eqs[name] = conj(parts) if draw(st.booleans()) else disj(parts)
    return EquationSystem(eqs)


ANY_SYSTEM = st.one_of(systems(), cyclic_systems(), acyclic_systems())


def _blows_up(reduce, system, max_terms) -> bool:
    try:
        reduce(system, None, max_terms)
    except EquationBlowupError:
        return True
    return False


#: a ring whose middle equation holds still in round 1 (TRUE absorbs its
#: disjunction) while its input moves: a round must re-substitute it anyway
RING = EquationSystem({
    "x0": conj([Var("x1"), Var("p0")]),
    "x1": disj([Var("x2"), Var("p1")]),
    "x2": conj([Var("x0"), Var("p2")]),
})


@settings(max_examples=500, deadline=None)
@given(ANY_SYSTEM, st.booleans())
@example(RING, True)
def test_reduce_matches_the_plain_kleene_loop(system, all_vars):
    keep = None if all_vars else sorted(system.variables())[:1]
    ours, plain = system.reduce(keep), reference_reduce(system, keep)
    assert ours.keys() == plain.keys()
    for name, expr in plain.items():
        assert ours[name] == expr
        assert ours[name].n_terms == expr.n_terms
        assert ours[name].variables() == expr.variables()


@settings(max_examples=400, deadline=None)
@given(ANY_SYSTEM, st.integers(min_value=1, max_value=24))
def test_the_blowup_guard_fires_in_exactly_the_plain_loops_cases(system, max_terms):
    assert _blows_up(EquationSystem.reduce, system, max_terms) == _blows_up(
        reference_reduce, system, max_terms
    )


def fresh_variables(expr: BoolExpr):
    if isinstance(expr, Var):
        return frozenset([expr.name])
    if isinstance(expr, (And, Or)):
        return frozenset().union(*map(fresh_variables, expr.operands))
    return frozenset()


def fresh_n_terms(expr: BoolExpr) -> int:
    if isinstance(expr, (And, Or)):
        return sum(map(fresh_n_terms, expr.operands))
    return 1


def fresh_hash(expr: BoolExpr) -> int:
    if isinstance(expr, (And, Or)):
        return hash((type(expr).__name__, frozenset(expr.operands)))
    if isinstance(expr, Var):
        return hash(("var", expr.name))
    return hash(expr)


@settings(max_examples=200, deadline=None)
@given(expr_strategy(3))
def test_memoized_fields_equal_a_fresh_recomputation(expr):
    for _ in range(2):  # the second pass reads the memo
        assert expr.variables() == fresh_variables(expr)
        assert expr.n_terms == fresh_n_terms(expr)
        assert hash(expr) == fresh_hash(expr)
    clone = pickle.loads(pickle.dumps(expr))  # rebuilt: the memo is not shipped
    assert clone == expr and clone is not expr
    assert clone.variables() == fresh_variables(expr)
    assert clone.n_terms == fresh_n_terms(expr)
    assert hash(clone) == hash(expr)


@settings(max_examples=200, deadline=None)
@given(expr_strategy(3), st.dictionaries(st.sampled_from(INTERNAL + EXTERNAL), st.booleans()))
def test_a_binding_that_misses_every_variable_returns_the_node(expr, values):
    binding = {
        name: TRUE if value else FALSE
        for name, value in values.items()
        if name not in expr.variables()
    }
    assert expr.substitute(binding) is expr
