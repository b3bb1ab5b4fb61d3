"""Records: the package's value classes behave as frozen dataclasses would,
with their methods written out (no generated code at import)."""

import copy
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ellselberg import ConfigurationError, DomainError
from ellselberg.config import _SECTION, Config
from ellselberg.invariants import BalancingMode, ParameterSet
from ellselberg.qseries import Nomes
from ellselberg.quadrature import QuadratureGrid, QuadResult, _Ladder
from ellselberg.report import FIELD_ORDER, ScenarioReport
from ellselberg.sampling import SafeBox, SampleStats
from ellselberg.scenarios import Row, Scenario

ROOT = Path(__file__).resolve().parents[1]

_BOX = (
    "SafeBox(nome_max=0.2, t_min=0.3, t_max=0.5, a_min=0.15, a_max=0.7, solved_clearance=0.25, "
    "max_rejections=20000)"
)

# Each record class: a function that builds one record, and that record's
# repr, which is the one a frozen dataclass of the same fields writes.
RECORDS = {
    "Config": (
        lambda: Config(),
        "Config(seed=42, count=None, tol=None, grid=None, timing=False, box=" + _BOX + ")",
    ),
    "ParameterSet": (
        lambda: ParameterSet(1, 0.5, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), BalancingMode.PQ),
        "ParameterSet(n=1, t=(0.5+0j), a=((0.1+0j), (0.2+0j), (0.3+0j), (0.4+0j), (0.5+0j), "
        "(0.6+0j)), balancing_mode=<BalancingMode.PQ: 'pq'>)",
    ),
    "Nomes": (lambda: Nomes(0.05, 0.12), "Nomes(p=(0.05+0j), q=(0.12+0j))"),
    "QuadratureGrid": (lambda: QuadratureGrid(2, 16, (0,)), "QuadratureGrid(n=2, N=16, fold=(0,))"),
    "QuadResult": (
        lambda: QuadResult(1j, 1e-9, 32, ((32, 1e-9),)),
        "QuadResult(value=1j, err_est=1e-09, N_used=32, history=((32, 1e-09),), retried=False)",
    ),
    "_Ladder": (
        lambda: _Ladder(("psi",), 1, 0, (), abs),
        "_Ladder(key=('psi',), n=1, folded=0, fold=(), f=<built-in function abs>)",
    ),
    "ScenarioReport": (
        lambda: ScenarioReport(
            "qde", 0, 1, 0.05 + 0j, 0.12 + 0j, 0.5 + 0j, (0.1 + 0j,), "pq", 2, None, None, 64,
            1 + 0j, 1 + 0j, 0.0, 0.0, 1e-7, True, None, 1e-13, 512,
        ),
        "ScenarioReport(scenario='qde', seed_index=0, n=1, p=(0.05+0j), q=(0.12+0j), t=(0.5+0j), "
        "a=((0.1+0j),), balancing='pq', k=2, r=None, i=None, grid_N=64, lhs=(1+0j), rhs=(1+0j), "
        "abs_err=0.0, rel_err=0.0, tol=1e-07, passed=True, runtime_ms=None, tail_tol=1e-13, "
        "max_terms=512, constraint_exponent=None, detail='')",
    ),
    "SafeBox": (lambda: SafeBox(), _BOX),
    "SampleStats": (lambda: SampleStats(), "SampleStats(accepted=0, rejected=0, reasons={})"),
    "Scenario": (
        lambda: Scenario(BalancingMode.ONE, (1e-7,), abs),
        "Scenario(balancing=<BalancingMode.ONE: 'one'>, tols=(1e-07,), runs=<built-in function abs>, "
        "window=None)",
    ),
    "Row": (
        lambda: Row("qde", 1, Nomes(0.05, 0.12), 21),
        "Row(scenario='qde', n=1, nomes=Nomes(p=(0.05+0j), q=(0.12+0j)), seed_offset=21, mode=None, "
        "box=" + _BOX + ", t=None, count=1, seed_index=0, ks=(1, 2, 3, 4, 5))",
    ),
}


def _values(record):
    return tuple(getattr(record, name) for name in record.field_names)


@pytest.mark.parametrize("name", RECORDS)
class TestEveryRecord:
    def test_repr_is_pinned(self, name):
        make, text = RECORDS[name]
        assert repr(make()) == text

    def test_equal_only_within_its_class(self, name):
        make, _ = RECORDS[name]
        record, twin = make(), make()
        assert record == twin and record is not twin and not record != twin
        # not equal to the tuple of its values, nor to a record of another class
        assert record != _values(record)
        other = Nomes(0.05, 0.12) if name != "Nomes" else QuadratureGrid(2, 16)
        assert record != other and other != record

    def test_equal_records_hash_equal(self, name):
        make, _ = RECORDS[name]
        if name == "SampleStats":  # updated in place, so it has no hash
            with pytest.raises(TypeError):
                hash(make())
        else:
            assert hash(make()) == hash(make())

    def test_fields_cannot_be_assigned(self, name):
        make, _ = RECORDS[name]
        record = make()
        field = record.field_names[0]
        if name == "SampleStats":  # updated in place
            setattr(record, field, 3)
            assert getattr(record, field) == 3
            return
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.unknown = 1
        assert getattr(record, field) == getattr(make(), field)

    def test_replace_changes_only_what_it_names(self, name):
        make, _ = RECORDS[name]
        record = make()
        assert record.replace() == record
        last = record.field_names[-1]
        changed = record.replace(**{last: getattr(record, last)})
        assert changed == record and changed is not record
        with pytest.raises(TypeError):
            record.replace(no_such_field=1)

    def test_copies_and_pickles_equal(self, name):
        make, _ = RECORDS[name]
        record = make()
        assert copy.copy(record) == record == copy.deepcopy(record)
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "record,changes,error",
    [
        (Nomes(0.05, 0.12), {"p": 1}, DomainError),
        (Config(), {"count": 0}, ConfigurationError),
        (SafeBox(), {"a_max": math.nan}, ConfigurationError),
        (QuadratureGrid(1, 16), {"N": 2}, DomainError),
        (ParameterSet(1, 0.5, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)), {"t": 1}, DomainError),
    ],
    ids=["Nomes-p=1", "Config-count=0", "SafeBox-a_max=nan", "QuadratureGrid-N=2", "ParameterSet-t=1"],
)
def test_replace_validates_again(record, changes, error):
    with pytest.raises(error):
        record.replace(**changes)


def test_replace_coerces_as_the_constructor_does():
    assert Nomes(0.05, 0.12).replace(q=0.2).q == 0.2 + 0j
    assert type(Nomes(0.05, 0.12).replace(q=0.2).q) is complex


def test_parameter_set_replace_holds_nothing():
    ps = ParameterSet(1, 0.5, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), BalancingMode.PQ)
    ps._held["kernel"] = object()
    fresh = ps.replace()
    assert fresh == ps and hash(fresh) == hash(ps)
    assert fresh._held == {} and ps._held
    # what a set holds is neither a field nor compared nor shown
    assert "_held" not in ps.field_names and "_held" not in repr(ps)


def test_ladders_equal_up_to_fold_and_f_are_equal():
    one = _Ladder(("psi",), 2, 1, (0,), abs)
    other = _Ladder(("psi",), 2, 1, (1,), len)
    assert one == other and hash(one) == hash(other)
    assert one != _Ladder(("psi",), 2, 2, (0, 1), abs)
    assert one != _Ladder(("psi-tilde",), 2, 1, (0,), abs)


def test_sample_stats_has_its_own_reasons():
    first, second = SampleStats(), SampleStats()
    first.reject("too close")
    assert first == SampleStats(0, 1, {"too close": 1}) and second.reasons == {}


def test_field_order_is_the_readme_list():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Fields, in\s+order: `([^`]*)`", readme).group(1)
    assert FIELD_ORDER == ScenarioReport.field_names == tuple(re.split(r",\s+", listed))


def test_config_keys_are_the_record_fields():
    assert tuple(_SECTION) == tuple(k for k in Config.field_names if k != "box") + SafeBox.field_names


def test_import_runs_no_dataclasses():
    # every record's methods are written out, so importing the command line
    # (after numpy, as every set-up of the benchmark does) loads no
    # dataclasses module and runs no generated code
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, numpy, ellselberg.cli; sys.exit('dataclasses' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
