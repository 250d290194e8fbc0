"""FLOW rule pack fixtures: positive and negative cases per rule."""


def _rules(findings):
    return sorted(f.rule for f in findings)


class TestFlow002:
    def test_close_skipping_path_flags(self, deep_lint):
        findings, _ = deep_lint({
            "pkg/__init__.py": "",
            "pkg/io.py": '''\
                def leaky(path):
                    handle = open(path)
                    data = handle.read()
                    if not data:
                        return None
                    handle.close()
                    return data
            ''',
        })
        flow = [f for f in findings if f.rule == "FLOW002"]
        assert len(flow) == 1
        assert "handle" in flow[0].message
        assert flow[0].severity == "warning"

    def test_with_block_is_clean(self, deep_lint):
        findings, _ = deep_lint({
            "pkg/__init__.py": "",
            "pkg/io.py": '''\
                def safe(path):
                    with open(path) as handle:
                        return handle.read()
            ''',
        })
        assert _rules(findings) == []

    def test_closed_on_every_path_is_clean(self, deep_lint):
        findings, _ = deep_lint({
            "pkg/__init__.py": "",
            "pkg/io.py": '''\
                def diligent(path):
                    handle = open(path)
                    data = handle.read()
                    handle.close()
                    if not data:
                        return None
                    return data
            ''',
        })
        assert _rules(findings) == []

    def test_passing_to_a_call_is_not_an_escape(self, deep_lint):
        findings, _ = deep_lint({
            "pkg/__init__.py": "",
            "pkg/io.py": '''\
                import json


                def dump(obj, path):
                    handle = open(path, "w")
                    json.dump(obj, handle)
            ''',
        })
        assert _rules(findings) == ["FLOW002"]

    def test_returned_resource_transfers_ownership(self, deep_lint):
        findings, _ = deep_lint({
            "pkg/__init__.py": "",
            "pkg/io.py": '''\
                def make(path):
                    handle = open(path)
                    return handle
            ''',
        })
        assert _rules(findings) == []


class TestFlow003:
    def test_direct_raise_without_provenance(self, deep_lint):
        findings, _ = deep_lint({
            "pkg/__init__.py": "",
            "pkg/sim.py": '''\
                from repro.robustness.errors import NumericalError


                def solve(matrix):
                    raise NumericalError("matrix is singular")
            ''',
        })
        flow = [f for f in findings if f.rule == "FLOW003"]
        assert len(flow) == 1
        assert "NumericalError" in flow[0].message

    def test_constructed_then_raised_without_provenance(self, deep_lint):
        findings, _ = deep_lint({
            "pkg/__init__.py": "",
            "pkg/sim.py": '''\
                from repro.robustness.errors import NumericalError


                def solve(matrix):
                    err = NumericalError("matrix is singular")
                    raise err
            ''',
        })
        flow = [f for f in findings if f.rule == "FLOW003"]
        assert len(flow) == 1
        assert "constructed earlier" in flow[0].message

    def test_provenance_keyword_is_clean(self, deep_lint):
        findings, _ = deep_lint({
            "pkg/__init__.py": "",
            "pkg/sim.py": '''\
                from repro.robustness.errors import NumericalError


                def solve(matrix, net):
                    raise NumericalError("matrix is singular", net=net.name)
            ''',
        })
        assert _rules(findings) == []

