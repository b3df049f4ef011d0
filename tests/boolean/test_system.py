"""Unit tests for Boolean equation systems and gfp solving."""

import pytest

from repro.boolean.expr import FALSE, TRUE, Var, conj, disj
from repro.boolean.system import EquationBlowupError, EquationSystem
from repro.errors import ReproError


class TestSolve:
    def test_cycle_defaults_true(self):
        # gfp semantics: mutually supporting variables are true (the
        # recommendation cycle of Figure 1).
        system = EquationSystem({"x": Var("y"), "y": Var("x")})
        assert system.solve() == {"x": True, "y": True}

    def test_external_falsity_breaks_cycle(self):
        system = EquationSystem({"x": Var("y") & Var("p"), "y": Var("x")})
        assert system.solve({"p": False}) == {"x": False, "y": False}
        assert system.solve({"p": True}) == {"x": True, "y": True}

    def test_unbound_external_raises(self):
        system = EquationSystem({"x": Var("p")})
        with pytest.raises(ReproError):
            system.solve()

    def test_constants(self):
        system = EquationSystem({"x": TRUE, "y": FALSE, "z": Var("x") & Var("y")})
        assert system.solve() == {"x": True, "y": False, "z": False}

    def test_disjunction_survives_one_false(self):
        system = EquationSystem({"x": Var("p") | Var("q")})
        assert system.solve({"p": False, "q": True})["x"] is True


class TestSolveAcyclic:
    def test_linear_chain(self):
        system = EquationSystem({"a": Var("b"), "b": Var("c"), "c": TRUE})
        assert system.solve_acyclic() == {"a": True, "b": True, "c": True}

    def test_cycle_raises(self):
        system = EquationSystem({"x": Var("y"), "y": Var("x")})
        with pytest.raises(ReproError):
            system.solve_acyclic()

    def test_agrees_with_general_solver_on_dags(self):
        system = EquationSystem(
            {
                "a": Var("b") & Var("c"),
                "b": Var("c") | Var("p"),
                "c": Var("p"),
            }
        )
        for p in (True, False):
            assert system.solve_acyclic({"p": p}) == system.solve({"p": p})

    def test_deep_chain_no_recursion_error(self):
        eqs = {f"x{i}": Var(f"x{i+1}") for i in range(3000)}
        eqs["x3000"] = TRUE
        system = EquationSystem(eqs)
        assert system.solve_acyclic()["x0"] is True


class TestReduce:
    def test_projects_onto_externals(self):
        system = EquationSystem({"x": Var("y") & Var("p"), "y": Var("x")})
        reduced = system.reduce()
        for p in (True, False):
            assert reduced["x"].evaluate({"p": p}) == p
            assert reduced["y"].evaluate({"p": p}) == p

    def test_keep_subset(self):
        system = EquationSystem({"x": Var("p"), "y": Var("x")})
        reduced = system.reduce(keep=["y"])
        assert set(reduced) == {"y"}
        assert reduced["y"] == Var("p")

    def test_reduce_unknown_variable_raises(self):
        system = EquationSystem({"x": TRUE})
        with pytest.raises(ReproError):
            system.reduce(keep=["nope"])

    def test_blowup_guard(self):
        # a ladder of alternating AND/OR doubles terms per level
        eqs = {}
        for i in range(12):
            eqs[f"x{i}"] = conj([Var(f"x{i+1}"), Var(f"p{i}")]) | Var(f"q{i}")
        eqs["x12"] = Var("p_last")
        system = EquationSystem(eqs)
        with pytest.raises(EquationBlowupError):
            system.reduce(max_terms=8)

    def test_reduced_system_wrapper(self):
        system = EquationSystem({"x": Var("p")})
        assert system.reduced_system().equation("x") == Var("p")


class TestIntrospection:
    def test_external_parameters(self):
        system = EquationSystem({"x": Var("y") & Var("p"), "y": Var("q")})
        assert system.external_parameters() == {"p", "q"}

    def test_len_contains(self):
        system = EquationSystem({"x": TRUE})
        assert len(system) == 1
        assert "x" in system
        assert "y" not in system
