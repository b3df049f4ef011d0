"""Systems of monotone Boolean equations and their greatest fixpoints.

An :class:`EquationSystem` maps variable names to monotone expressions over
(a) other variables of the system ("internal") and (b) free parameters
("external" -- in dGPM these are the virtual-node variables owned by other
sites).  Simulation semantics is the **greatest** fixpoint: a cycle of
variables that support each other evaluates to true (that is exactly why the
recommendation cycle of Figure 1 matches the cyclic query).

Three operations matter to the paper:

* :meth:`EquationSystem.solve` -- gfp under a total valuation of externals
  (coordinator-side solving in dGPMt, Section 5.2);
* :meth:`EquationSystem.reduce` -- symbolic projection onto the externals:
  rewrite every equation so it mentions external parameters only.  This is
  lEval's "reduce equations such that for each in-node its equations are
  defined in terms of variables associated with virtual nodes only"
  (Section 4.1, Example 6), and the payload of the push operation (4.2);
* :meth:`EquationSystem.solve_acyclic` -- linear-time bottom-up substitution
  when the dependency graph is a DAG/forest, the ``O(|Q||F|)`` step of dGPMt.

``reduce`` computes the gfp symbolically by Kleene iteration from the all-true
valuation: with ``n`` internal variables the iteration stabilizes within ``n``
rounds, so substituting ``n`` times and then setting surviving internal
occurrences to TRUE yields the exact projection.  Worst-case expression blowup
is capped by ``max_terms`` (callers fall back to value shipping -- the paper's
push is an *optimization*, never required for correctness).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.boolean.expr import BoolExpr, TRUE, VarName
from repro.errors import ReproError


class EquationBlowupError(ReproError):
    """Symbolic reduction exceeded the configured size budget."""


class EquationSystem:
    """A finite system ``x_i = f_i(x_1..x_n, p_1..p_m)`` of monotone equations."""

    def __init__(self, equations: Mapping[VarName, BoolExpr]) -> None:
        self._eqs: Dict[VarName, BoolExpr] = dict(equations)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._eqs)

    def __contains__(self, name: VarName) -> bool:
        return name in self._eqs

    def equation(self, name: VarName) -> BoolExpr:
        """Right-hand side of variable ``name``."""
        return self._eqs[name]

    def variables(self) -> Set[VarName]:
        """The defined (internal) variables."""
        return set(self._eqs)

    def external_parameters(self) -> Set[VarName]:
        """Free variables mentioned by some equation but not defined by the system."""
        mentioned: Set[VarName] = set()
        for expr in self._eqs.values():
            mentioned |= expr.variables()
        return mentioned - set(self._eqs)

    def as_dict(self) -> Dict[VarName, BoolExpr]:
        """A copy of the equations."""
        return dict(self._eqs)

    def __repr__(self) -> str:
        return f"EquationSystem(n_equations={len(self._eqs)}, n_external={len(self.external_parameters())})"

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, externals: Mapping[VarName, bool] | None = None) -> Dict[VarName, bool]:
        """Greatest fixpoint under a total valuation of the external parameters.

        Kleene iteration from all-true; monotonicity guarantees convergence in
        at most ``len(self)`` rounds.
        """
        externals = dict(externals or {})
        missing = self.external_parameters() - set(externals)
        if missing:
            raise ReproError(f"unbound external parameters: {sorted(map(repr, missing))}")
        value: Dict[VarName, bool] = {name: True for name in self._eqs}
        changed = True
        while changed:
            changed = False
            env = {**externals, **value}
            for name, expr in self._eqs.items():
                if value[name] and not expr.evaluate(env):
                    value[name] = False
                    changed = True
        return value

    def solve_acyclic(self, externals: Mapping[VarName, bool] | None = None) -> Dict[VarName, bool]:
        """Solve a system whose internal dependency graph is acyclic.

        Processes variables in dependency order (children first); each
        equation is evaluated exactly once -- the linear-time regime dGPMt
        relies on for trees (Section 5.2).  Raises :class:`ReproError` if a
        dependency cycle is found.
        """
        externals = dict(externals or {})
        value: Dict[VarName, bool] = {}
        state: Dict[VarName, int] = {}  # 0 = visiting, 1 = done

        for root in self._eqs:
            if root in state:
                continue
            stack = [(root, False)]
            while stack:
                name, expanded = stack.pop()
                if expanded:
                    env = {**externals, **value}
                    value[name] = self._eqs[name].evaluate(env)
                    state[name] = 1
                    continue
                if state.get(name) == 1:
                    continue
                if state.get(name) == 0:
                    raise ReproError(f"dependency cycle through {name!r}")
                state[name] = 0
                stack.append((name, True))
                for dep in self._eqs[name].variables():
                    if dep in self._eqs and state.get(dep) != 1:
                        if state.get(dep) == 0:
                            raise ReproError(f"dependency cycle through {dep!r}")
                        stack.append((dep, False))
        return value

    # ------------------------------------------------------------------
    # symbolic reduction (Example 6 / push operation)
    # ------------------------------------------------------------------
    def reduce(
        self,
        keep: Optional[Iterable[VarName]] = None,
        max_terms: int = 4096,
    ) -> Dict[VarName, BoolExpr]:
        """Project the gfp onto the external parameters, symbolically.

        Returns, for each variable in ``keep`` (default: all), an expression
        over external parameters only, equal to the variable's gfp value as a
        function of those parameters.

        Works SCC by SCC over the internal dependency graph, sinks first:
        downstream components are substituted in fully reduced form.  An
        acyclic singleton is then done.  Inside any other component a
        symbolic Kleene iteration (from all-true, the gfp direction) runs --
        it stabilizes within ``|SCC|`` rounds, so the expensive iteration
        never spans the whole system -- and it is semi-naive: a round
        re-substitutes only the equations whose in-component inputs changed
        in the round before (the others would rebuild what they hold).

        Raises :class:`EquationBlowupError` if any intermediate expression
        exceeds ``max_terms`` leaves.
        """
        eqs = self._eqs
        wanted = set(eqs if keep is None else keep)
        unknown = wanted - set(eqs)
        if unknown:
            raise ReproError(f"cannot reduce undefined variables: {sorted(map(repr, unknown))}")

        from repro.graph.algorithms import tarjan_scc

        deps = {
            name: [v for v in expr.variables() if v in eqs] for name, expr in eqs.items()
        }
        reduced: Dict[VarName, BoolExpr] = {}

        def check(name: VarName, expr: BoolExpr) -> BoolExpr:
            if expr.n_terms > max_terms:
                raise EquationBlowupError(
                    f"equation for {name!r} grew past {max_terms} terms during reduction"
                )
            return expr

        for component in tarjan_scc(deps):  # sinks first
            if len(component) == 1 and component[0] not in deps[component[0]]:
                name = component[0]
                binding = {v: reduced[v] for v in deps[name]}
                reduced[name] = check(name, eqs[name].substitute(binding))
                continue
            comp = set(component)
            # Substitute fully-reduced downstream variables.
            local: Dict[VarName, BoolExpr] = {}
            inputs: Dict[VarName, List[VarName]] = {}
            readers: Dict[VarName, List[VarName]] = {}
            for name in component:
                expr = eqs[name]
                local[name] = expr = expr.substitute(
                    {v: reduced[v] for v in deps[name] if v not in comp}
                )
                inputs[name] = [v for v in expr.variables() if v in comp]
                for v in inputs[name]:
                    readers.setdefault(v, []).append(name)
            # Kleene within the component, from the all-true valuation.
            current = {
                name: expr.substitute(dict.fromkeys(inputs[name], TRUE))
                for name, expr in local.items()
            }
            dirty = component
            for _ in range(len(component)):
                nxt = {
                    name: check(
                        name, local[name].substitute({v: current[v] for v in inputs[name]})
                    )
                    for name in dirty
                }
                changed = [name for name, res in nxt.items() if res != current[name]]
                if not changed:
                    break
                for name in changed:
                    current[name] = nxt[name]
                stale = {r for name in changed for r in readers.get(name, ())}
                dirty = [name for name in component if name in stale]
            reduced.update(current)
        return {name: reduced[name] for name in wanted}

    def reduced_system(self, keep: Optional[Iterable[VarName]] = None, max_terms: int = 4096) -> "EquationSystem":
        """:meth:`reduce` packaged back into an :class:`EquationSystem`."""
        return EquationSystem(self.reduce(keep, max_terms))
