"""Dataflow engine fixtures: reaching-definitions fixpoints."""

import ast
import textwrap

from repro.lint.cfg import build_cfg
from repro.lint.dataflow import ReachingDefinitions


def _cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body[0])


def _exit_env(analysis, cfg):
    """The merged environment entering the exit block."""
    return analysis.states[cfg.exit][0]


class TestReachingDefinitions:
    def test_straight_line_single_def(self):
        cfg = _cfg('''\
            def f():
                x = 1
                return x
        ''')
        rd = ReachingDefinitions(cfg)
        facts = _exit_env(rd, cfg).get("x", frozenset())
        assert len(facts) == 1
        assert {fact[1] for fact in facts} == {2}

    def test_branch_merges_both_defs(self):
        cfg = _cfg('''\
            def f(flag):
                if flag:
                    x = 1
                else:
                    x = 2
                return x
        ''')
        rd = ReachingDefinitions(cfg)
        facts = _exit_env(rd, cfg).get("x", frozenset())
        assert {fact[1] for fact in facts} == {3, 5}

    def test_redefinition_kills_earlier_def(self):
        cfg = _cfg('''\
            def f():
                x = 1
                x = 2
                return x
        ''')
        rd = ReachingDefinitions(cfg)
        facts = _exit_env(rd, cfg).get("x", frozenset())
        assert {fact[1] for fact in facts} == {3}

    def test_value_at_recovers_rhs(self):
        cfg = _cfg('''\
            def f():
                err = ValueError("boom")
                raise err
        ''')
        rd = ReachingDefinitions(cfg)
        facts = _exit_env(rd, cfg).get("err", frozenset())
        (fact,) = facts
        value = rd.value_at("err", fact)
        assert isinstance(value, ast.Call)

    def test_loop_fixpoint_terminates_with_both_defs(self):
        cfg = _cfg('''\
            def f(items):
                x = 0
                for item in items:
                    x = item
                return x
        ''')
        rd = ReachingDefinitions(cfg)
        facts = _exit_env(rd, cfg).get("x", frozenset())
        assert {fact[1] for fact in facts} == {2, 4}
