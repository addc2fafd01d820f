import concurrent.futures
import errno
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszlab.errors import ConfigError, NumericalError, WriteError
from rieszlab import cli
from rieszlab.evolution import (FullState, field_row, step_linear,
                                support_edge_index)
from rieszlab.grids import Field2D, trapz
from rieszlab.kernels import op_Ls, profile_tail


def write_config(tmp_path, body, name="run.txt"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def load_manifest(out_dir):
    with open(os.path.join(str(out_dir), "manifest.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_parse_config_minimal_defaults(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, "alpha = 0.2\n"))
    assert cfg.alpha == 0.2
    assert cfg.delta == 1.0
    assert cfg.run_kind == "model"
    assert cfg.n_r == 512 and cfg.n_theta == 256
    assert cfg.r_max == 8.0
    assert cfg.initial_kind == "bump"


def test_parse_config_comments_and_spacing(tmp_path):
    body = ("# growth run\nalpha = 0.1\n\n  delta=2.5  \nrun.kind = linear\n"
            "output.dir = out#1\n")
    cfg = cli.parse_config(write_config(tmp_path, body))
    assert cfg.alpha == 0.1 and cfg.delta == 2.5
    assert cfg.run_kind == "linear"
    # a # that follows no whitespace is part of the value
    assert cfg.output_dir == "out#1"


@pytest.mark.parametrize("line", [
    "output.dir = {out} # my run", "alpha = 0.2 # small",
    "alpha = 0.2\t# small", "output.dir = # {out}"],
    ids=["string", "number", "tab", "value-is-comment"])
def test_trailing_comment_exits_2_naming_the_line(tmp_path, capsys, line):
    # a # after whitespace would start a comment, and comments take a
    # whole line: the value is refused, not read with its comment, and
    # nothing is written
    out = tmp_path / "out"
    path = write_config(tmp_path, "grid.n_r = 64\n%s\n"
                        % line.format(out=out))
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "config error: %s:2: comments must take a whole line" % path in err
    assert os.listdir(tmp_path) == ["run.txt"]


def test_parse_config_rejects_bad_lines(tmp_path):
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(tmp_path, "alpha 0.2\n"))
    assert "expected key = value" in str(err.value)
    assert ":1:" in str(err.value)
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(tmp_path, "alpha = 0.2\nfoo.bar = 1\n"))
    assert "unknown key" in str(err.value) and ":2:" in str(err.value)
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(tmp_path, "grid.n_r = twelve\n"))
    assert "bad value" in str(err.value)
    with pytest.raises(ConfigError):
        cli.parse_config(str(tmp_path / "absent.txt"))


def test_repeated_key_exits_2_naming_both_lines(tmp_path, capsys):
    # a later value would silently win over the first
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "alpha = 0.2\ngrid.n_r = 64\ngrid.n_theta = 16\n"
        "time.sample_count = 3\nalpha = 0.3\noutput.dir = %s\n" % out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "'alpha' repeated" in err
    assert ":5:" in err and "line 1" in err
    assert not out.exists()


def test_validate_rejects_out_of_range(tmp_path):
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(tmp_path, "alpha = 1.5\n"))
    assert "alpha" in str(err.value) and "1.5" in str(err.value)
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(
            tmp_path, "alpha = 0.2\ninitial.center = 1.2\n"))
    assert "support must avoid [0,1)" in str(err.value)
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(
            tmp_path, "alpha = 0.2\ninitial.center = 7.0\n"))
    assert "support must end inside" in str(err.value)
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(
            tmp_path, "alpha = 0.2\ngrid.n_theta = 30\n"))
    assert "multiple of 4" in str(err.value)
    # delta = 0 is a quiescent run; a negative delta is refused
    with pytest.raises(ConfigError, match="delta must lie in"):
        cli.parse_config(write_config(tmp_path, "alpha = 0.2\ndelta = -1\n"))


@pytest.mark.parametrize("values, message", [
    ({"run.kind": "bogus"}, "run.kind must be one of"),
    # every radial grid is geometric, so grid.spacing is no key
    ({"grid.spacing": "geometric"}, "unknown key 'grid.spacing'"),
    ({"initial.kind": "nope"}, "initial.kind must be one of"),
    ({"alhpa": 0.2}, "unknown key 'alhpa'"),
    ({"alpha": "0.2"}, "alpha must be of type float, got '0.2'"),
    ({"grid.n_r": 64.0}, "grid.n_r must be of type int, got 64.0"),
    ({"initial.table_path": 3}, "initial.table_path must be of type str"),
    ({"delta": 10 ** 400}, "delta must be finite and fit a float"),
    ({"delta": True}, "delta must be of type float, got True"),
    # delta is the amplitude, so initial.amplitude is no key
    ({"initial.amplitude": 1.0}, "unknown key 'initial.amplitude'"),
], ids=["run-kind", "spacing", "initial-kind", "unknown-key", "alpha-str",
        "n-r-float", "table-path-int", "delta-huge-int", "delta-bool",
        "retired-amplitude"])
def test_validate_config_rejects_unknown_choices(values, message):
    # library callers reach validate_config without parse_config
    with pytest.raises(ConfigError, match=message):
        cli.validate_config(values)


def test_readme_config_table_matches_keys():
    # every key with its default, every value a choice key may take, and
    # the interval a number must lie in
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Config files")[1].split("\n#")[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[1:]
    assert sorted(rows) == sorted(cli._KEYS)
    for key, (_, default, kind, bounds) in cli._KEYS.items():
        shown, meaning = rows[key]
        if default == "":
            assert shown == "", key
        elif isinstance(default, str):
            assert shown == "`%s`" % default, key
        else:
            assert shown == "`%g`" % default, key
        if isinstance(kind, tuple):
            for value in kind:
                assert "`%s`" % value in meaning, (key, value)
        if bounds is not None:
            assert "`%s%g, %g%s`" % bounds in meaning, key


_KINDS = ("model", "linear", "full", "remainder", "sweep")


@pytest.mark.parametrize("body", [
    "grid.n_theta = 0\n",
    "grid.r_max = inf\n",
    # an unknown key since every radial grid is geometric
    "grid.spacing = uniform\nrun.kind = remainder\n",
    "run.kind = sweep\nrun.alphas = 1.5,0.75,0.375\n",
    "initial.kind = indicator\ninitial.width = -1\n",
    "initial.width = 0\n",
    "grid.n_theta = 4\nrun.kind = remainder\n",
    # 4 angles sample sin 2 theta only at its zeros
    "grid.n_theta = 4\nrun.kind = linear\n",
    "grid.n_theta = 4\nrun.kind = model\n",
    "run.kind = sweep\nrun.alphas = ,\n",
    "delta = nan\n",
    # members sharing a dir would write over each other's files
    "run.kind = sweep\nrun.alphas = 0.4,0.4,0.4\n",
    "run.kind = sweep\nrun.alphas = 0.1,0.1000001,0.2\n",
    # amplitudes near the float maximum overflow at set-up sites
    *["run.kind = %s\ndelta = %s\n" % (kind, delta)
      for kind in _KINDS for delta in ("1e308", "1.79e308")],
    # delta is the amplitude, so initial.amplitude is an unknown key
    "initial.amplitude = 1.79e308\n",
    # marches that need more than MAX_FULL_STEPS steps would not end
    "run.kind = full\ntime.horizon_factor = 1e300\n",
    "run.kind = full\ntime.horizon_factor = 1e300\ndelta = 0\n",
    "run.kind = remainder\ntime.horizon_factor = 1e6\ngrid.r_max = 1e6\n"
    "initial.center = 2000\ninitial.width = 500\n",
    "run.kind = sweep\nrun.alphas = 0.4\ntime.horizon_factor = 1e300\n",
], ids=["n-theta-zero", "r-max-inf", "uniform-remainder", "sweep-alpha-1.5",
        "indicator-negative-width", "bump-zero-width", "n-theta-4-remainder",
        "n-theta-4-linear", "n-theta-4-model",
        "sweep-no-alphas", "delta-nan", "sweep-repeated-alpha",
        "sweep-same-member-dir",
        *["%s-delta-%s" % (kind, delta)
          for kind in _KINDS for delta in ("1e308", "1.79e308")],
        "amplitude-1.79e308", "full-horizon-1e300",
        "full-horizon-1e300-zero-amplitude", "remainder-horizon-1e6",
        "sweep-horizon-1e300"])
def test_main_rejects_bad_config_before_running(tmp_path, capsys, body):
    # refused before any work, also with warnings as errors; grid.n_theta
    # is left to the bodies that set it, which a repeat would refuse
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "alpha = 0.2\ngrid.n_r = 64\ntime.sample_count = 3\n"
        "output.dir = %s\n%s" % (out, body)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", path]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


_FIRST_NODE = (r"initial data must vanish at the first radial node "
               r"1e-3\*r_max = %s; lower grid\.r_max or move the data up "
               r"\(%s\)")
_UNSAMPLED = (r"no radial node on \[%s, %s\] samples the initial data; "
              r"raise grid\.n_r, lower grid\.r_max or widen the data "
              r"\(%s\)")
_BUMP_KEYS = r"initial\.center, initial\.width"


@pytest.mark.parametrize("body, message", [
    # the grid starts at R = 2, where the bump peaks
    ("run.kind = remainder\ngrid.r_max = 2000\n",
     _FIRST_NODE % ("2", _BUMP_KEYS)),
    ("run.kind = sweep\nrun.alphas = 0.4\ngrid.r_max = 2000\n",
     _FIRST_NODE % ("2", _BUMP_KEYS)),
    # the first node is the indicator's edge, which carries half its value
    ("run.kind = model\ninitial.kind = indicator\ngrid.r_max = 1500\n",
     _FIRST_NODE % ("1.5", _BUMP_KEYS)),
    # the whole bump lies below the grid
    ("run.kind = linear\ngrid.r_max = 1e6\n",
     _UNSAMPLED % ("1000", r"1e\+06", _BUMP_KEYS)),
    # supports that fall between two nodes
    ("run.kind = model\ninitial.width = 1e-3\n",
     _UNSAMPLED % (r"0\.008", "8", _BUMP_KEYS)),
    ("run.kind = remainder\ninitial.width = 1e-3\n",
     _UNSAMPLED % (r"0\.008", "8", _BUMP_KEYS)),
    ("run.kind = full\ninitial.kind = indicator\ninitial.width = 2e-3\n",
     _UNSAMPLED % (r"0\.008", "8", _BUMP_KEYS)),
], ids=["remainder-first-node", "sweep-first-node", "indicator-edge-node",
        "linear-below-grid", "model-between-nodes",
        "remainder-between-nodes", "full-indicator-between-nodes"])
def test_unsampled_initial_data_exits_2_naming_the_rule(tmp_path, capsys,
                                                        body, message):
    # data that the radial grid misses or cuts at its first node would run
    # on all-zero or clipped rows; it is refused before any work, with
    # warnings as errors, naming the rule and the keys to change
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "grid.n_r = 64\ngrid.n_theta = 16\ntime.sample_count = 4\n"
        "output.dir = %s\n%s" % (out, body)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", path]) == 2
    assert re.search("config error: " + message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("rows, extra, message", [
    ("1 0\n2 1\n3 0\n", "grid.r_max = 2000\n",
     _FIRST_NODE % ("2", r"initial\.table_path")),
    ("2 0\n2.0001 1\n2.0002 0\n", "",
     _UNSAMPLED % (r"0\.008", "8", r"initial\.table_path")),
], ids=["first-node", "between-nodes"])
def test_unsampled_table_exits_2_with_its_manifest(tmp_path, capsys, rows,
                                                   extra, message):
    # a table is read when the run starts, so its refusal leaves the
    # manifest
    out = tmp_path / "out"
    table = tmp_path / "table.txt"
    table.write_text(rows, encoding="utf-8")
    path = write_config(tmp_path, (
        "initial.kind = table\ninitial.table_path = %s\ngrid.n_r = 64\n"
        "time.sample_count = 4\noutput.dir = %s\n%s" % (table, out, extra)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", path]) == 2
    assert re.search("config error: " + message, capsys.readouterr().err)
    assert load_manifest(out)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("kind", ["model", "linear", "full", "remainder"])
def test_sampled_data_on_a_large_domain_runs(tmp_path, kind):
    # the first node at R = 2 lies below a bump on (400, 600), and zero
    # data needs no node at all
    for name, extra in (("bump", "initial.center = 500\n"
                                 "initial.width = 100\n"),
                        ("quiescent", "delta = 0\n")):
        out = tmp_path / name
        path = write_config(tmp_path, (
            "run.kind = %s\ngrid.r_max = 2000\ngrid.n_r = 64\n"
            "grid.n_theta = 16\ntime.sample_count = 4\noutput.dir = %s\n%s"
            % (kind, out, extra)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", path]) == 0
        manifest = load_manifest(out)
        assert manifest["error"] is None
        assert all(status.startswith("pass")
                   for status in manifest["checks"].values())


@pytest.mark.parametrize("value", [cli.MAX_COUNT + 1, 10 ** 12])
@pytest.mark.parametrize("key", ["grid.n_r", "grid.n_theta",
                                 "time.sample_count"])
def test_counts_past_max_count_exit_2_naming_the_key(tmp_path, capsys, key,
                                                     value):
    # each count sizes arrays, so past its bound it is refused before any
    # work, with warnings as errors, where numpy would fail to allocate
    out = tmp_path / "out"
    path = write_config(tmp_path, "%s = %d\noutput.dir = %s\n"
                        % (key, value, out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "config error: %s must lie in [" % key in err
    assert "%d], got %d" % (cli.MAX_COUNT, value) in err
    assert not out.exists()


def test_uncreatable_output_dir_exits_2(tmp_path, capsys):
    # a regular file where a parent directory should be: no manifest can
    # be written, and the message names the dir
    (tmp_path / "afile").write_text("", encoding="utf-8")
    out = tmp_path / "afile" / "out"
    path = write_config(tmp_path, (
        "alpha = 0.2\ngrid.n_r = 64\ngrid.n_theta = 16\n"
        "time.sample_count = 3\noutput.dir = %s\n" % out))
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(out) in err


def _fresh_interpreter(code):
    """Run code in a new interpreter that imports rieszlab from this
    tree, with warnings as errors, and return what it printed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys; sys.path.insert(0, %r); %s" % (src, code)],
        capture_output=True, text=True, check=True).stdout


_SCIPY_MODULES = ("loaded = lambda: sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy'); ")


def test_import_loads_no_unused_scipy_subpackages(tmp_path):
    # a fresh interpreter: importing the command line loads no scipy
    # module, and neither do a model run and a linear run, which never
    # solve for the stream function. A remainder run then loads LAPACK's
    # extension alone, without running scipy's or scipy.linalg's
    # __init__.py
    config = ("grid.n_r = 64\ngrid.n_theta = 16\ntime.sample_count = 4\n"
              "run.kind = %s\noutput.dir = %s\n")
    paths = []
    for kind in ("model", "linear", "remainder"):
        paths.append(write_config(tmp_path, config % (kind, tmp_path / kind),
                                  name=kind + ".txt"))
    out = _fresh_interpreter(
        "import rieszlab.cli; " + _SCIPY_MODULES + "before = loaded(); "
        "print(before, [(rieszlab.cli.main(['run', p]), loaded()) "
        "for p in %r])" % paths)
    assert out.splitlines()[-1] == (
        "[] [(0, []), (0, []), (0, ['scipy.linalg._flapack'])]")


def test_sweep_loads_lapack_in_the_parent_before_its_workers_start(tmp_path):
    # the parent of a sweep solves nothing itself, so it holds the bound
    # routines only if it bound LAPACK before starting the pool
    path = write_config(tmp_path, (
        "run.kind = sweep\nrun.alphas = 0.4,0.2\ngrid.n_r = 64\n"
        "grid.n_theta = 16\ntime.sample_count = 4\noutput.dir = %s\n"
        % (tmp_path / "out")))
    out = _fresh_interpreter(
        "import rieszlab.cli; code = rieszlab.cli.main(['run', %r]); "
        "print(code, rieszlab.cli.lapack_tridiagonal.cache_info().currsize)"
        % path)
    assert out.splitlines()[-1] == "0 1"


def test_sweep_loads_numpy_fft_in_the_parent_before_its_workers_start(
        tmp_path):
    # numpy loads numpy.fft on first use, and the parent of a sweep
    # transforms nothing itself: it must load it before it starts the
    # pool, so that workers started by fork inherit it
    path = write_config(tmp_path, (
        "run.kind = sweep\nrun.alphas = 0.4,0.2\ngrid.n_r = 64\n"
        "grid.n_theta = 16\ntime.sample_count = 4\noutput.dir = %s\n"
        % (tmp_path / "out")))
    out = _fresh_interpreter(
        "import concurrent.futures as cf, rieszlab.cli; seen = []\n"
        "class Pool(cf.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        seen.append('numpy.fft' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "cf.ProcessPoolExecutor = Pool\n"
        "before = 'numpy.fft' in sys.modules\n"
        "print(rieszlab.cli.main(['run', %r]), before, seen)" % path)
    assert out.splitlines()[-1] == "0 False [True]"


def test_scipy_linalg_imports_after_the_direct_load_of_lapack():
    # the extension is registered under its own name, so a later import of
    # scipy.linalg (tests import it at collection) reuses it and hands out
    # the very routines the solves run on
    out = _fresh_interpreter(
        "from rieszlab.elliptic import lapack_tridiagonal; "
        "routines = lapack_tridiagonal(); " + _SCIPY_MODULES +
        "before = loaded(); from scipy.linalg.lapack import dgttrf, dgttrs; "
        "print(before, routines[0] is dgttrf and routines[1] is dgttrs)")
    assert out.splitlines()[-1] == "['scipy.linalg._flapack'] True"


def test_lapack_falls_back_to_scipy_linalg_without_the_extension(tmp_path):
    # with no _flapack file where scipy should be, the public
    # scipy.linalg.lapack serves, and a 64 x 16 half-circle field solves
    # bit for bit as on the directly loaded extension
    solve = (
        "import hashlib, numpy as np; from rieszlab import elliptic; "
        "from rieszlab.grids import (build_radial_grid, AngularGrid, "
        "Field2D, half_circle); from rieszlab.model import make_bump; "
        "g = build_radial_grid(0.5, 8.0, 64); "
        "a = half_circle(AngularGrid(16)); "
        "om = Field2D(g, a, np.outer(make_bump(g).values, "
        "np.sin(2.0 * a.nodes) + 0.3 * np.cos(4.0 * a.nodes))); "
        "digest = hashlib.sha256(elliptic.solve_full(om, 0.3).values"
        ".tobytes()).hexdigest(); ")
    direct = _fresh_interpreter(
        solve + _SCIPY_MODULES + "print(loaded(), digest)")
    fallback = _fresh_interpreter(
        "import rieszlab.elliptic as elliptic; "
        "elliptic._scipy_dir = lambda: %r; " % str(tmp_path) + solve +
        "imported = 'scipy.linalg.lapack' in sys.modules; "
        "import scipy.linalg.lapack as lapack; "
        "routines = elliptic.lapack_tridiagonal(); "
        "print(imported, routines[0] is lapack.dgttrf "
        "and routines[1] is lapack.dgttrs, digest)")
    loaded, digest = direct.splitlines()[-1].rsplit(" ", 1)
    assert loaded == "['scipy.linalg._flapack']"
    assert fallback.splitlines()[-1] == "True True " + digest


@pytest.mark.parametrize("rows, message", [
    ("1.5 1.0\n2.0 -0.5\n2.5 1.0\n", "nonnegative"),
    ("1.5 1.0\n2.0 nan\n2.5 1.0\n", "finite"),
    # np.interp needs increasing R; unsorted it returns zeros here
    ("3.0 0.0\n1.5 1.0\n2.0 1.0\n2.5 1.0\n", "strictly increasing"),
    ("R v\n1.5 1.0\n2.0 1.0\n", "cannot read initial table"),
    ("1.5,1.0\n2.0,1.0\n", "cannot read initial table"),
    ("1.5 1.0\n", "at least two rows"),
    ("", "has no data rows"),
    ("# R value\n\n# none yet\n", "has no data rows"),
], ids=["negative", "nan", "unsorted", "header", "comma", "one-row", "empty",
        "comments-only"])
def test_bad_table_values_exit_2_with_manifest(tmp_path, capsys, rows,
                                               message):
    table = tmp_path / "profile.txt"
    table.write_text(rows, encoding="utf-8")
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "alpha = 0.2\ninitial.kind = table\ninitial.table_path = %s\n"
        "grid.n_r = 64\ngrid.n_theta = 16\noutput.dir = %s\n"
        % (table, out)))
    assert cli.main(["run", path]) == 2
    assert message in capsys.readouterr().err
    error = load_manifest(out)["error"]
    assert error["type"] == "ConfigError" and message in error["message"]


def test_stray_value_error_exits_3_with_manifest(tmp_path, capsys,
                                                 monkeypatch):
    def body(config, out_dir, checks):
        raise ValueError("broken precondition")

    monkeypatch.setitem(cli._BODIES, "model", body)
    out = tmp_path / "out"
    path = write_config(tmp_path, "output.dir = %s\n" % out)
    assert cli.main(["run", path]) == 3
    assert "broken precondition" in capsys.readouterr().err
    error = load_manifest(out)["error"]
    assert error == {"type": "ValueError", "message": "broken precondition",
                     "stage": ""}


def test_memory_error_exits_3_with_manifest(tmp_path, capsys, monkeypatch):
    # an allocation that fails stops the run like a numerical failure, in
    # a run and in a sweep member, which is called here in-process
    def body(config, out_dir, checks):
        raise MemoryError()

    monkeypatch.setitem(cli._BODIES, "model", body)
    out = tmp_path / "out"
    path = write_config(tmp_path, "output.dir = %s\n" % out)
    assert cli.main(["run", path]) == 3
    assert "numerical failure (run): MemoryError" in capsys.readouterr().err
    assert load_manifest(out)["error"] == {"type": "MemoryError",
                                           "message": "", "stage": ""}
    monkeypatch.setattr(cli, "_run_remainder", body)
    member = cli.validate_config({"run.kind": "remainder", "alpha": 0.4,
                                  "output.dir": str(tmp_path / "member")})
    with pytest.raises(MemoryError):
        cli._sweep_member((member, 0.4, member.output_dir))
    assert load_manifest(member.output_dir)["error"]["type"] == "MemoryError"


class InProcessPool:
    """A ProcessPoolExecutor stand-in that runs each job as it is
    submitted, in this process, so monkeypatched code runs in the sweep's
    members whatever the start method."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future


def sweep_config(tmp_path, alphas, out):
    return write_config(tmp_path, (
        "run.kind = sweep\nrun.alphas = %s\ngrid.n_r = 64\n"
        "grid.n_theta = 16\ntime.sample_count = 4\noutput.dir = %s\n"
        % (alphas, out)))


def assert_dead_worker_exit(err, out, lost):
    assert ("numerical failure (sweep): a sweep worker died before "
            + lost) in err
    assert "Traceback" not in err
    error = load_manifest(out)["error"]
    assert error["type"] == "NumericalError" and error["stage"] == "sweep"
    assert lost in error["message"]


@pytest.mark.parametrize("alphas, lost", [
    ("0.4", "member alpha=0.4"), ("0.4,0.2", "members alpha=0.4, 0.2")])
def test_dead_sweep_worker_exits_3_with_manifest(tmp_path, capsys,
                                                 monkeypatch, alphas, lost):
    # a worker that dies (a signal, the OOM killer) breaks the pool, and
    # every member not yet finished reads BrokenProcessPool: the sweep
    # fails at stage sweep and names them. The members run in-process
    def broken(config, out_dir, manifest):
        raise BrokenProcessPool("a worker was terminated abruptly")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool, raising=False)
    monkeypatch.setattr(cli, "_run_remainder", broken)
    out = tmp_path / "sweep"
    assert cli.main(["run", sweep_config(tmp_path, alphas, out)]) == 3
    assert_dead_worker_exit(capsys.readouterr().err, out, lost)


def test_dead_sweep_worker_outranks_an_earlier_member_failure(
        tmp_path, capsys, monkeypatch):
    # one member fails on its own and a worker dies in the other: the
    # sweep fails at stage sweep and names only the lost member
    def body(config, out_dir, manifest):
        if config.alpha == 0.4:
            raise NumericalError("first member", stage="rhs_full")
        raise BrokenProcessPool("a worker was terminated abruptly")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool, raising=False)
    monkeypatch.setattr(cli, "_run_remainder", body)
    out = tmp_path / "sweep"
    assert cli.main(["run", sweep_config(tmp_path, "0.4,0.2", out)]) == 3
    err = capsys.readouterr().err
    assert_dead_worker_exit(err, out, "member alpha=0.2 finished")
    assert "0.4" not in load_manifest(out)["error"]["message"]
    assert load_manifest(out / "alpha_0.4")["error"]["stage"] == "rhs_full"


def test_sweep_member_never_submitted_is_lost_too(tmp_path, capsys,
                                                  monkeypatch):
    # a worker that dies while members are still being submitted makes
    # the next submit raise: the member it would have run is named too
    class BreakingPool(InProcessPool):
        broken = False

        def submit(self, fn, *args):
            if self.broken:
                raise BrokenProcessPool("the pool is not usable anymore")
            self.broken = True
            future = Future()
            future.set_exception(
                BrokenProcessPool("a worker was terminated abruptly"))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        BreakingPool, raising=False)
    out = tmp_path / "sweep"
    assert cli.main(["run", sweep_config(tmp_path, "0.4,0.2", out)]) == 3
    assert_dead_worker_exit(capsys.readouterr().err, out,
                            "members alpha=0.4, 0.2 finished")


class RecordingPool(InProcessPool):
    """InProcessPool that notes the alpha of each job submitted to it."""

    submitted = []

    def submit(self, fn, *args):
        self.submitted.append(args[0][1])
        return super().submit(fn, *args)


def test_sweep_submits_longest_first_and_reports_in_run_alphas_order(
        tmp_path, monkeypatch):
    # the smallest alpha marches longest, so the members are submitted in
    # ascending alpha; the scaling report's rows and the manifest's files
    # keep run.alphas as given
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool, raising=False)
    monkeypatch.setattr(RecordingPool, "submitted", [])
    out = tmp_path / "sweep"
    manifest = cli.run(cli.parse_config(sweep_config(tmp_path, "0.2,0.1,0.4",
                                                     out)))
    assert RecordingPool.submitted == [0.1, 0.2, 0.4]
    report = np.loadtxt(out / "scaling_report.csv", delimiter=",",
                        skiprows=1)
    assert report[:, 0].tolist() == [0.2, 0.1, 0.4]
    for alpha, peak in report[:, :2]:
        member = load_manifest(out / ("alpha_%g" % alpha))
        assert member["stats"]["peak_rem_sup"] == peak
    assert list(manifest["files"]) == [
        "alpha_%s/%s" % (a, name) for a in ("0.2", "0.1", "0.4")
        for name in ("growth.csv", "remainder.csv")] + ["scaling_report.csv"]


def test_sweep_names_the_first_failure_in_run_alphas_not_in_submission(
        tmp_path, capsys, monkeypatch):
    # every member fails; 0.1 and 0.2 ran before 0.4, but 0.4 comes
    # first in run.alphas and is the one named
    def body(config, out_dir, manifest):
        raise NumericalError("member %g" % config.alpha, stage="rhs_full")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool, raising=False)
    monkeypatch.setattr(RecordingPool, "submitted", [])
    monkeypatch.setattr(cli, "_run_remainder", body)
    out = tmp_path / "sweep"
    assert cli.main(["run", sweep_config(tmp_path, "0.4,0.1,0.2", out)]) == 3
    assert RecordingPool.submitted == [0.1, 0.2, 0.4]
    err = capsys.readouterr().err
    assert ("numerical failure (rhs_full): sweep member alpha=0.4 failed: "
            "member 0.4") in err
    assert "alpha=0.1" not in err and "alpha=0.2" not in err
    assert load_manifest(out)["error"]["stage"] == "rhs_full"


def test_dead_worker_names_the_members_left_unfinished(tmp_path, capsys,
                                                       monkeypatch):
    # submitted in ascending alpha, 0.1 finishes, 0.2's worker dies and
    # the submit of 0.4 finds the pool broken: the sweep names 0.4 and
    # 0.2, in run.alphas order, and not the member that finished
    class DyingPool(InProcessPool):
        submits = 0

        def submit(self, fn, *args):
            self.submits += 1
            if self.submits == 1:
                return super().submit(fn, *args)
            if self.submits > 2:
                raise BrokenProcessPool("the pool is not usable anymore")
            future = Future()
            future.set_exception(
                BrokenProcessPool("a worker was terminated abruptly"))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        DyingPool, raising=False)
    out = tmp_path / "sweep"
    assert cli.main(["run", sweep_config(tmp_path, "0.4,0.1,0.2", out)]) == 3
    assert_dead_worker_exit(capsys.readouterr().err, out,
                            "members alpha=0.4, 0.2 finished")
    assert load_manifest(out / "alpha_0.1")["error"] is None
    assert not (out / "alpha_0.4").exists()


@pytest.mark.parametrize("first, second, code, printed", [
    (NumericalError("first", stage="check_support"),
     ConfigError("second"), 3,
     "numerical failure (check_support): sweep member alpha=0.1 failed: "
     "first"),
    (ConfigError("first"), WriteError("second"), 2,
     "config error: sweep member alpha=0.1: first"),
    (MemoryError(), NumericalError("second", stage="rhs_full"), 3,
     "numerical failure (sweep): sweep member alpha=0.1 failed: \n")],
    ids=["numerical", "config", "memory"])
def test_first_failing_sweep_member_in_run_alphas_order_is_named(
        tmp_path, capsys, monkeypatch, first, second, code, printed):
    # both members fail; the one first in run.alphas (not in value order)
    # decides the exit, with its own stage
    def body(config, out_dir, manifest):
        raise first if config.alpha == 0.1 else second

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool, raising=False)
    monkeypatch.setattr(cli, "_run_remainder", body)
    out = tmp_path / "sweep"
    assert cli.main(["run", sweep_config(tmp_path, "0.1,0.4", out)]) == code
    err = capsys.readouterr().err
    assert printed in err and "alpha=0.4" not in err
    assert "alpha=0.1" in load_manifest(out)["error"]["message"]
    for alpha, raised in (("0.1", first), ("0.4", second)):
        member = load_manifest(out / ("alpha_" + alpha))["error"]
        assert member["type"] == type(raised).__name__


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers must inherit the patched body")
def test_killed_sweep_worker_exits_3_with_manifest(tmp_path, capfd,
                                                   monkeypatch):
    # a worker process really killed mid-member takes the same exit
    parent = os.getpid()

    def killed(config, out_dir, manifest):
        if os.getpid() != parent:
            os._exit(9)
        raise AssertionError("the sweep parent ran a member")

    monkeypatch.setattr(cli, "_run_remainder", killed)
    out = tmp_path / "sweep"
    assert cli.main(["run", sweep_config(tmp_path, "0.4", out)]) == 3
    assert_dead_worker_exit(capfd.readouterr().err, out, "member alpha=0.4")


def failing_open(monkeypatch, suffix):
    """Make cli's open fail with a full disk on paths ending in suffix."""
    real = open

    def fake(path, *args, **kwargs):
        if str(path).endswith(suffix):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", fake, raising=False)


@pytest.mark.parametrize("kind, stage_of", [
    ("model", ""), ("sweep", "sweep member alpha=0.4 failed: ")])
def test_csv_write_failure_exits_3_with_manifest(tmp_path, capsys,
                                                 monkeypatch, kind, stage_of):
    # a CSV that cannot be written once output.dir exists stops the run at
    # stage write, in a run and in a sweep member, here run in-process;
    # the manifest still records it
    failing_open(monkeypatch, ".csv")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool, raising=False)
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "run.kind = %s\nrun.alphas = 0.4\ngrid.n_r = 64\ngrid.n_theta = 16\n"
        "time.sample_count = 4\noutput.dir = %s\n" % (kind, out)))
    assert cli.main(["run", path]) == 3
    csv = out / "alpha_0.4" / "growth.csv" if kind == "sweep" else (
        out / "growth.csv")
    message = "%scannot write %s: No space left on device" % (stage_of, csv)
    err = capsys.readouterr().err
    assert "numerical failure (write): " + message in err
    assert "Traceback" not in err
    assert load_manifest(out)["error"] == {
        "type": "NumericalError" if kind == "sweep" else "WriteError",
        "message": message, "stage": "write"}
    assert not csv.exists()


def test_manifest_write_failure_exits_3(tmp_path, capsys, monkeypatch):
    # with no manifest to record it in, stderr names the stage and file
    failing_open(monkeypatch, "manifest.json")
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "grid.n_r = 64\ngrid.n_theta = 16\ntime.sample_count = 4\n"
        "output.dir = %s\n" % out))
    assert cli.main(["run", path]) == 3
    err = capsys.readouterr().err
    assert ("numerical failure (write): cannot write %s: No space left on "
            "device" % (out / "manifest.json")) in err
    assert "Traceback" not in err
    assert (out / "growth.csv").exists()
    assert not (out / "manifest.json").exists()

    # a run that fails on its own keeps its exit code and message, and
    # stderr names the manifest it could not write as well
    def body(config, out_dir, manifest):
        raise ConfigError("a bad initial table")

    monkeypatch.setitem(cli._BODIES, "model", body)
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "config error: a bad initial table" in err
    assert ("numerical failure (write): cannot write %s: No space left on "
            "device" % (out / "manifest.json")) in err
    assert "Traceback" not in err


def test_interrupted_run_records_the_interrupt_in_its_manifest(tmp_path,
                                                                monkeypatch):
    # an interrupt is no Exception, yet a run it stops is no success: the
    # manifest names it and the interrupt itself propagates unchanged
    def body(config, out_dir, manifest):
        manifest["checks"]["sandwich"] = "pass"
        raise KeyboardInterrupt("stopped")

    monkeypatch.setitem(cli._BODIES, "model", body)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt, match="stopped"):
        cli.run(cli.validate_config({"output.dir": str(out)}))
    manifest = load_manifest(out)
    assert manifest["error"] == {"type": "KeyboardInterrupt",
                                 "message": "stopped", "stage": ""}
    assert manifest["checks"] == {"sandwich": "pass"}
    assert manifest["files"] == {}


# a config that validation accepts on a tiny grid, or one with a single
# key moved to an edge or out of range
_TINY_VALID = st.fixed_dictionaries({
    "run.kind": st.sampled_from(["model", "linear", "full", "remainder"]),
    "alpha": st.floats(min_value=0.05, max_value=0.6),
    "delta": st.sampled_from([0.0, 1.0, 2.0]),
    "grid.n_r": st.sampled_from([33, 64]),
    "grid.n_theta": st.sampled_from([8, 12, 16]),
    "time.sample_count": st.integers(min_value=2, max_value=4),
    "time.horizon_factor": st.sampled_from([0.01, 0.1]),
    "initial.kind": st.sampled_from(["bump", "indicator", "table"]),
    "initial.center": st.floats(min_value=2.0, max_value=3.0),
    "initial.width": st.floats(min_value=0.5, max_value=1.0),
})
_TINY_EDGES = {
    "alpha": [-0.1, 0.0, 5e-324, 1e-310, 0.99, 1.0],
    "delta": [-1.0, 1e3, 1e300, 1e308, 1.79e308],
    "grid.r_max": [0.0, 3.0, 3.8],
    # the counts past their bound only: a count that validates at the
    # bound would allocate arrays of that size
    "grid.n_r": [4, 8, 10 ** 12],
    "grid.n_theta": [0, 4, 30, 10 ** 12],
    "time.sample_count": [0, 1, 10 ** 12],
    "time.horizon_factor": [0.0, 1.0, 1e300],
    "time.dt_factor": [0.0, 0.5],
    "initial.center": [1.0, 6.0],
    "initial.width": [-1.0, 0.0, 2.5],
}


@st.composite
def _tiny_tables(draw):
    """Rows (R, value) of an initial table: R sorted and values finite and
    nonnegative, or with the order reversed, one value made negative or
    one entry made not finite."""
    n = draw(st.integers(min_value=1, max_value=6))
    radii = draw(st.lists(st.floats(min_value=0.8, max_value=3.5),
                          min_size=n, max_size=n))
    vals = draw(st.lists(st.floats(min_value=0.0, max_value=2.0),
                         min_size=n, max_size=n))
    rows = [list(row) for row in zip(sorted(radii), vals)]
    # drawn as an index: sampled_from gave its first choice most draws
    defect = [None, "unsorted", "negative", "nan", "inf"][
        draw(st.integers(0, 4))]
    if defect == "unsorted":
        rows.reverse()
    elif defect == "negative":
        rows[draw(st.integers(0, n - 1))][1] = -0.5
    elif defect is not None:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = float(
            defect)
    return rows


@st.composite
def _tiny_configs(draw):
    values = draw(_TINY_VALID)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(_TINY_EDGES)))
        values[key] = draw(st.sampled_from(_TINY_EDGES[key]))
    table = (draw(_tiny_tables()) if values["initial.kind"] == "table"
             else None)
    return values, table


def _main_on(tmp, values, table=None):
    """Write values (and table, if given) as a config under tmp, run it
    through main into tmp/out, and return (exit code, output dir)."""
    out = os.path.join(tmp, "out")
    path = os.path.join(tmp, "run.txt")
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in sorted(values.items()):
            fh.write("%s = %s\n" % (key, value))
        fh.write("output.dir = %s\n" % out)
        if table is not None:
            table_path = os.path.join(tmp, "table.txt")
            with open(table_path, "w", encoding="utf-8") as tf:
                for row in table:
                    tf.write("%r %r\n" % tuple(row))
            fh.write("initial.table_path = %s\n" % table_path)
    return cli.main(["run", path]), out


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_tiny_configs())
def test_every_config_exits_cleanly_with_manifest(case):
    # every config either runs or stops with exit 2 or 3, never with a
    # traceback, and a run that started leaves its manifest
    values, table = case
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _main_on(tmp, values, table)
        assert code in (0, 2, 3)
        if code in (0, 3):
            assert os.path.isfile(os.path.join(out, "manifest.json"))


# one key (both alpha keys, so that a sweep meets it) at the edge of the
# float range
_FLOAT_RANGE_EDGES = {
    "amplitude-1e300": {"delta": 1e300},
    "amplitude-1.79e308": {"delta": 1.79e308},
    "horizon-1e300": {"time.horizon_factor": 1e300},
    "alpha-1e-310": {"alpha": 1e-310, "run.alphas": 1e-310},
    "alpha-5e-324": {"alpha": 5e-324, "run.alphas": 5e-324},
}


# how each kind ends at each edge: the exit code and the error of its
# manifest as "type@stage", "" for none, or None where validation refuses
# the config before a manifest can be written; kinds not named pass
_MARCHED = ("full", "remainder", "sweep")
_EDGE_OUTCOMES = {
    "amplitude-1e300": dict.fromkeys(_MARCHED, (3, "NumericalError@rhs_full")),
    "amplitude-1.79e308": dict.fromkeys(("model", "linear") + _MARCHED,
                                        (2, None)),
    "horizon-1e300": dict(dict.fromkeys(_MARCHED, (2, None)), linear=(
        3, "NumericalError@step_linear")),
    "alpha-1e-310": {"full": (3, "EllipticError@_solve_mode_low"),
                     "remainder": (3, "EllipticError@_solve_mode_low"),
                     "sweep": (3, "NumericalError@_solve_mode_low")},
    "alpha-5e-324": {"linear": (3, "ValueError@"),
                     "full": (3, "EllipticError@_solve_mode_low"),
                     "remainder": (3, "EllipticError@_solve_mode_low"),
                     "sweep": (3, "NumericalError@_solve_mode_low")},
}


@pytest.mark.parametrize("edge", sorted(_FLOAT_RANGE_EDGES))
@pytest.mark.parametrize("kind", ["model", "linear", "full", "remainder",
                                  "sweep"])
def test_every_kind_at_the_float_range_edges_exits_cleanly(tmp_path, kind,
                                                            edge):
    # with warnings as errors, each kind at each edge runs or stops with
    # exit 2 or 3, never with a traceback, and a run that started leaves
    # its manifest; the finiteness checks sit where values are made (step
    # ends, the stencil solve, the tendency's overflow), and each edge
    # keeps the exit code and manifest error it had when every field
    # wrapper checked its values
    values = {"run.kind": kind, "grid.n_r": 64, "grid.n_theta": 16,
              "time.sample_count": 4, "run.alphas": 0.4}
    values.update(_FLOAT_RANGE_EDGES[edge])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _main_on(str(tmp_path), values)
    path = os.path.join(out, "manifest.json")
    error = None
    if os.path.isfile(path):
        error = load_manifest(out)["error"] or ""
        error = error and "%s@%s" % (error["type"], error["stage"])
    assert (code, error) == _EDGE_OUTCOMES[edge].get(kind, (0, ""))


@pytest.mark.parametrize("extra", [
    "grid.n_r = 64\ngrid.n_theta = 16\ntime.sample_count = 4\n",
    # 41 samples, one block of the remainder run's model side (48 samples
    # over its 21 distinct tails)
    "alpha = 0.2\ngrid.n_r = 128\ngrid.n_theta = 32\n"
    "time.sample_count = 41\n",
], ids=["64x16", "128x32"])
def test_full_and_remainder_runs_write_the_same_growth_csv(tmp_path, extra):
    # one growth row, field_row, for both kinds of the full march
    for kind in ("full", "remainder"):
        cli.run(cli.parse_config(write_config(tmp_path, (
            "run.kind = %s\noutput.dir = %s\n" % (kind, tmp_path / kind))
            + extra, name=kind + ".txt")))
    assert ((tmp_path / "full" / "growth.csv").read_bytes()
            == (tmp_path / "remainder" / "growth.csv").read_bytes())


def test_model_and_remainder_runs_write_the_same_model_sup(tmp_path):
    # one sampler of the model for both kinds: a model run's t,sup_norm
    # columns are a remainder run's t,model_sup columns, byte for byte
    def columns(kind, name, picked):
        out = tmp_path / kind
        cli.run(cli.parse_config(write_config(tmp_path, (
            "run.kind = %s\ngrid.n_r = 64\ngrid.n_theta = 16\n"
            "output.dir = %s\n" % (kind, out)), name=kind + ".txt")))
        lines = (out / name).read_text(encoding="utf-8").splitlines()[1:]
        return [[line.split(",")[k] for k in picked] for line in lines]

    model = columns("model", "growth.csv", (0, 1))
    assert len(model) == 200
    assert model == columns("remainder", "remainder.csv", (0, 4))


_TINY_SWEEPS = st.fixed_dictionaries({
    "run.kind": st.just("sweep"),
    "run.alphas": st.lists(st.floats(min_value=0.05, max_value=0.6),
                           min_size=1, max_size=3).map(
        lambda alphas: ",".join("%g" % a for a in alphas)),
    "grid.n_r": st.sampled_from([33, 64]),
    "grid.n_theta": st.sampled_from([8, 12]),
    "time.sample_count": st.integers(min_value=2, max_value=3),
})


@settings(derandomize=True, deadline=None, max_examples=30)
@given(values=_TINY_SWEEPS)
def test_every_sweep_exits_cleanly_with_manifests(values):
    # a sweep that started leaves its own manifest and one per member,
    # whether or not a member failed
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _main_on(tmp, values)
        assert code in (0, 2, 3)
        if code in (0, 3):
            assert os.path.isfile(os.path.join(out, "manifest.json"))
            for alpha in values["run.alphas"].split(","):
                assert os.path.isfile(os.path.join(
                    out, "alpha_" + alpha, "manifest.json"))


def test_model_run_with_zero_amplitude(tmp_path):
    out = tmp_path / "out"
    cfg = cli.parse_config(write_config(tmp_path, (
        "alpha = 0.2\ndelta = 0\ntime.sample_count = 5\n"
        "grid.n_r = 64\ngrid.n_theta = 16\noutput.dir = %s\n" % out)))
    manifest = cli.run(cfg)
    assert manifest["error"] is None
    assert manifest["checks"]["sandwich"].startswith("pass")
    rows = np.genfromtxt(os.path.join(str(out), "growth.csv"),
                         delimiter=",", names=True)
    assert list(rows.dtype.names) == ["t", "sup_norm", "l2_norm",
                                      "Ls_at_support_inf", "A_max"]
    assert np.all(rows["sup_norm"] == 0.0)
    assert np.all(rows["l2_norm"] == 0.0)
    on_disk = load_manifest(out)
    assert on_disk["config"]["alpha"] == 0.2
    assert "growth.csv" in on_disk["files"]


def test_linear_run_matches_row_formula(tmp_path):
    out = tmp_path / "out"
    cfg = cli.parse_config(write_config(tmp_path, (
        "alpha = 0.25\nrun.kind = linear\ninitial.kind = indicator\n"
        "initial.center = 1.5\ninitial.width = 1.0\n"
        "time.sample_count = 40\noutput.dir = %s\n" % out)))
    manifest = cli.run(cfg)
    assert manifest["checks"]["closed_form"].startswith("pass")
    rows = np.genfromtxt(os.path.join(str(out), "growth.csv"),
                         delimiter=",", names=True)
    t = rows["t"]
    # the source adds (t / 2 alpha) L_s(omega_0) to every angle, so the
    # sup grows by (t / 2 alpha) ln 2 up to the jump-cell quadrature bias
    pred = 1.0 + (0.5 * t / 0.25) * np.log(2.0)
    assert np.max(np.abs(rows["sup_norm"] - pred) / pred) <= 2e-3
    # the tail at the support edge is an invariant of the linear flow,
    # and every row takes it from L_s(omega_0)
    assert np.ptp(rows["Ls_at_support_inf"]) == 0.0
    assert np.all(np.diff(rows["A_max"]) > 0)


@pytest.mark.parametrize("extra", [
    "grid.n_theta = 64\ndelta = 400\n",
    # the largest sin 2 theta on 12 angles is sin(pi / 3) < 1
    "grid.n_theta = 12\ndelta = 400\n",
    "grid.n_theta = 64\ndelta = 0\n",
], ids=["n-theta-64", "n-theta-12", "zero-amplitude"])
def test_linear_columns_match_a_grid_march(tmp_path, extra):
    # the run writes its rows from the closed form; the reference marches
    # the grid field from t = 0 to each sample in one step_linear and
    # takes its field_row
    out = tmp_path / "out"
    cfg = cli.parse_config(write_config(tmp_path, (
        "alpha = 0.2\nrun.kind = linear\n"
        "initial.kind = indicator\ninitial.center = 1.5\n"
        "grid.n_r = 128\ntime.sample_count = 25\noutput.dir = %s\n"
        % out) + extra))
    manifest = cli.run(cfg)
    assert manifest["checks"]["closed_form"].startswith("pass")
    got = np.loadtxt(os.path.join(str(out), "growth.csv"), delimiter=",",
                     skiprows=1)
    rgrid, agrid = cli.build_grids(cfg)
    f0 = cli.build_profile(cfg, rgrid)
    omega0 = Field2D(rgrid, agrid,
                     np.outer(f0.values, np.sin(2.0 * agrid.nodes)))
    j0 = support_edge_index(f0)
    ref = []
    for t in got[:, 0]:
        state = FullState(cfg.alpha, omega0, 0.0)
        if t > 0:
            state = step_linear(state, t)
        ref.append(field_row(state.omega, j0))
    ref = np.array(ref)
    for k in range(4):
        # a zero-amplitude run has scale 0 and must match exactly
        scale = np.max(np.abs(ref[:, k]))
        assert np.max(np.abs(got[:, k + 1] - ref[:, k])) <= 1e-12 * scale


def _linear_coefficients(cfg):
    """(f0, L_s(omega0), sin 2 theta, the coefficients of s^0, s^1 and s^2
    in the field's angular integral of its square) of a linear run, the
    last three arrays at every radial node."""
    rgrid, agrid = cli.build_grids(cfg)
    f0 = cli.build_profile(cfg, rgrid)
    f = f0.values
    sin2 = np.sin(2.0 * agrid.nodes)
    ls0 = op_Ls(Field2D(rgrid, agrid, np.outer(f, sin2))).values
    sum1, sum2 = float(np.sum(sin2)), float(np.sum(sin2 ** 2))
    sq = ((agrid.dtheta * sum2) * f ** 2,
          (2.0 * agrid.dtheta * sum1) * f * ls0,
          (agrid.dtheta * agrid.n_theta) * ls0 ** 2)
    return f0, ls0, sin2, sq


def _linear_growth_one_sample_at_a_time(cfg):
    """growth.csv of a linear run written one sample at a time, each
    maximum over every radial row: the oracle of the block passes over the
    distinct rows. The l2 column takes the run's arithmetic, the square
    root of T0 + s T1 + s^2 T2 with T_k the trapezoid integral of the
    coefficient of s^k."""
    f0, ls0, sin2, sq = _linear_coefficients(cfg)
    j0, f = support_edge_index(f0), f0.values
    hi, lo = f * float(np.max(sin2)), f * float(np.min(sin2))
    mean0 = f * (float(np.sum(sin2)) / sin2.size)
    T0, T1, T2 = (float(trapz(c, f0.grid.nodes)) for c in sq)
    lines = ["t,sup_norm,l2_norm,Ls_at_support_inf,A_max\n"]
    for ts in cli._sample_times(cfg):
        s = 0.5 * ts / cfg.alpha
        src = s * ls0
        row = (max(float(np.max(np.abs(hi + src))),
                   float(np.max(np.abs(lo + src)))),
               float(np.sqrt(T0 + s * T1 + s * s * T2)),
               float(ls0[j0]),
               2.0 * float(np.max(mean0 + src)))
        lines.append(",".join("%.17g" % v for v in (ts, *row)) + "\n")
    return "".join(lines)


def _linear_growth_matches_the_oracle(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = cli.run(cfg)
        want = _linear_growth_one_sample_at_a_time(cfg)
    assert manifest["checks"]["closed_form"].startswith("pass")
    with open(os.path.join(cfg.output_dir, "growth.csv"), encoding="utf-8",
              newline="") as fh:
        assert fh.read() == want


# the config below has 53 distinct (f0, L_s(omega0)) rows at 512 nodes,
# so a block takes _LINEAR_BLOCK // 53 samples
_PER_BLOCK_512 = cli._LINEAR_BLOCK // 53


@pytest.mark.parametrize("n_r, samples", [
    (512, _PER_BLOCK_512 - 1), (512, _PER_BLOCK_512),
    (512, _PER_BLOCK_512 + 1), (512, 200), (4000, 33)])
def test_linear_block_passes_write_the_per_sample_bytes(tmp_path, n_r,
                                                        samples):
    # a block holds _LINEAR_BLOCK // (distinct rows) samples, so these
    # counts end inside, on and past the first block's edge, and 4000
    # nodes (403 distinct rows) take few samples per block
    cfg = cli.validate_config({
        "run.kind": "linear", "alpha": 0.05, "delta": 400.0,
        "initial.kind": "indicator", "initial.center": 1.5,
        "grid.n_r": n_r, "grid.n_theta": 64, "time.sample_count": samples,
        "output.dir": str(tmp_path / "out")})
    if n_r == 512:
        f0, ls0, _, _ = _linear_coefficients(cfg)
        pairs = np.column_stack((f0.values, ls0))
        assert np.unique(pairs, axis=0).shape[0] == 53
    _linear_growth_matches_the_oracle(cfg)


@pytest.mark.parametrize("case", ["delta-5e-324", "gap-table",
                                  "indicator-jump-nodes"])
def test_linear_rows_over_distinct_pairs_write_the_per_row_bytes(tmp_path,
                                                                 case):
    # the run skips each row whose pair (f0, L_s(omega0)) repeats the row
    # before: at delta = 5e-324 f0 / R underflows, so rows with different
    # f0 share a tail; a table with an interior run of zeros has zero rows
    # of several tails; an indicator whose jumps land on nodes has
    # half-value rows
    values = {"run.kind": "linear", "grid.n_theta": 64,
              "output.dir": str(tmp_path / "out")}
    if case == "delta-5e-324":
        values["delta"] = 5e-324
    elif case == "gap-table":
        table = tmp_path / "gap-table.txt"
        table.write_text("1 0\n1.5 1\n2 1\n2.2 0\n2.6 0\n2.8 0.5\n3.2 0\n",
                         encoding="utf-8")
        values.update({"initial.kind": "table",
                       "initial.table_path": str(table)})
    else:
        nodes = cli.build_grids(cli.validate_config(values))[0].nodes
        lo, hi = nodes[390], nodes[425]
        values.update({"initial.kind": "indicator", "delta": 400.0,
                       "initial.center": 0.5 * (lo + hi),
                       "initial.width": hi - lo})
    cfg = cli.validate_config(values)
    if case == "indicator-jump-nodes":
        assert np.count_nonzero(_linear_coefficients(cfg)[0].values
                                == 200.0) == 2
    _linear_growth_matches_the_oracle(cfg)


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_linear_l2_column_stays_near_the_per_row_trapezoid(tmp_path, seed):
    # the l2 column is sqrt(T0 + s T1 + s^2 T2); the per-row trapezoid of
    # the square at each sample rounds otherwise. On the growth
    # benchmark's linear configs (perfbench/workloads.py: a seed moves the
    # amplitude and the support) the two agree within 1e-14
    u = np.random.default_rng(seed).random(2) if seed else (0.0, 0.0)
    for alpha in (0.4, 0.2, 0.1, 0.05):
        cfg = cli.validate_config({
            "run.kind": "linear", "alpha": alpha,
            "delta": 400.0 * (1.0 + 0.2 * float(u[0])),
            "initial.kind": "indicator",
            "initial.center": 1.5 * (1.0 + 0.03 * float(u[1])),
            "initial.width": 1.0, "grid.n_theta": 64,
            "output.dir": str(tmp_path / ("out_%g" % alpha))})
        cli.run(cfg)
        got = np.loadtxt(os.path.join(cfg.output_dir, "growth.csv"),
                         delimiter=",", skiprows=1)
        f0, _, _, (sq0, sq1, sq2) = _linear_coefficients(cfg)
        s = (0.5 * got[:, 0] / alpha)[:, None]
        want = np.sqrt(trapz(sq0 + s * sq1 + s * s * sq2, f0.grid.nodes))
        assert np.max(np.abs(got[:, 2] - want) / want) <= 1e-14


def test_linear_run_memory_does_not_grow_with_samples_times_nodes(tmp_path):
    # one (4096, 4096) array of the rows would add 128 MiB to the 41 MiB
    # that the grid field and its check take
    cfg = cli.validate_config({
        "run.kind": "linear", "grid.n_r": 4096, "time.sample_count": 4096,
        "output.dir": str(tmp_path / "out")})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            manifest = cli.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert manifest["checks"]["closed_form"].startswith("pass")
    assert peak < 64 * 2 ** 20


def test_model_run_memory_does_not_grow_with_samples_times_distinct_tails(
        tmp_path):
    # 4096 samples over the 644 distinct tails of 4096 nodes, held whole,
    # peaked at 244 MiB; blocks of _MODEL_BLOCK entries stay near 31 MiB
    cfg = cli.validate_config({
        "run.kind": "model", "grid.n_r": 4096, "time.sample_count": 4096,
        "output.dir": str(tmp_path / "out")})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            manifest = cli.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert manifest["checks"] == {"finite_norms": "pass", "sandwich": "pass"}
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("samples", [6, 7, 8, 50])
def test_model_blocks_keep_the_rows_of_one_block(tmp_path, monkeypatch,
                                                 samples):
    # 7 samples a block: the counts end inside, on and past the first
    # block's edge, and 50 ends in a partial block. Every column but l2 is
    # elementwise and keeps its bytes; l2's products may move in the last
    # place when their rows are split
    def growth(out):
        cfg = cli.validate_config({
            "run.kind": "model", "alpha": 0.05, "delta": 400.0,
            "initial.kind": "indicator", "initial.center": 1.5,
            "grid.n_r": 512, "time.sample_count": samples,
            "output.dir": str(tmp_path / out)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            manifest = cli.run(cfg)
        rows = np.loadtxt(os.path.join(cfg.output_dir, "growth.csv"),
                          delimiter=",", skiprows=1)
        return manifest["checks"], rows, cfg

    checks, whole, cfg = growth("whole")
    tails = profile_tail(cli.build_profile(cfg, cli.build_grids(cfg)[0]))
    monkeypatch.setattr(cli, "_MODEL_BLOCK",
                        7 * np.unique(tails.values).size)
    blocked_checks, blocked, _ = growth("blocked")
    assert blocked_checks == checks
    assert np.array_equal(blocked[:, [0, 1, 3, 4]], whole[:, [0, 1, 3, 4]])
    np.testing.assert_allclose(blocked[:, 2], whole[:, 2], rtol=2e-15,
                               atol=0)


def test_rerun_is_byte_identical(tmp_path):
    # the files map digests every output, a sweep member's too, and no
    # manifest: a manifest carries its own wall time
    bodies = {
        "model": "alpha = 0.3\ntime.sample_count = 6\ngrid.n_r = 96\n",
        "sweep": "run.kind = sweep\nrun.alphas = 0.4,0.2,0.1\n"
                 "time.sample_count = 4\ngrid.n_r = 64\n",
    }
    for kind, body in bodies.items():
        outs = []
        for name in ("a", "b"):
            out = tmp_path / kind / name
            cfg = cli.parse_config(write_config(tmp_path, (
                body + "grid.n_theta = 16\noutput.dir = %s\n" % out),
                name="cfg_%s_%s.txt" % (kind, name)))
            cli.run(cfg)
            outs.append(out)
        files = load_manifest(outs[0])["files"]
        assert files == load_manifest(outs[1])["files"]
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        assert not any(rel.endswith("manifest.json") for rel in files)
    # three members' growth.csv and remainder.csv, and scaling_report.csv
    assert len(files) == 7


def tiny_config(tmp_path, kind, out):
    """A parsed 64 x 16 config of kind at 4 samples; a sweep has two
    members."""
    return cli.parse_config(write_config(tmp_path, (
        "run.kind = %s\nrun.alphas = 0.4,0.2\ngrid.n_r = 64\n"
        "grid.n_theta = 16\ntime.sample_count = 4\noutput.dir = %s\n"
        % (kind, out)), name="%s.txt" % kind))


@pytest.mark.parametrize("kind", _KINDS)
def test_manifest_digests_are_those_of_the_files_on_disk(tmp_path, kind):
    # each digest is taken from the text its writer wrote, and must be
    # the sha256 of the file on disk, a sweep member's too; a sweep lists
    # its members' digests as their own manifests record them
    out = tmp_path / "out"
    cli.run(tiny_config(tmp_path, kind, out))
    files = load_manifest(out)["files"]
    assert files
    for rel, digest in files.items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
    members = ("alpha_0.4", "alpha_0.2") if kind == "sweep" else ()
    for member in members:
        for rel, digest in load_manifest(out / member)["files"].items():
            assert files.pop("%s/%s" % (member, rel)) == digest
    if members:
        assert list(files) == ["scaling_report.csv"]


def test_no_run_reads_back_what_it_wrote(tmp_path, monkeypatch):
    # every output is opened once, to be written; its digest comes from
    # the text written. The sweep's members run in this process, so
    # their opens are counted too
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool, raising=False)
    rem, sweep = tmp_path / "remainder", tmp_path / "sweep"
    configs = [tiny_config(tmp_path, "remainder", rem),
               tiny_config(tmp_path, "sweep", sweep)]
    real, opened = open, []

    def counting(path, mode="r", *args, **kwargs):
        opened.append((str(path), mode))
        return real(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting, raising=False)
    for config in configs:
        cli.run(config)
    written = ("growth.csv", "remainder.csv", "manifest.json")
    expected = [rem / name for name in written] + [
        sweep / member / name for member in ("alpha_0.4", "alpha_0.2")
        for name in written] + [sweep / "scaling_report.csv",
                                sweep / "manifest.json"]
    assert sorted(opened) == sorted((str(path), "w") for path in expected)


# the last row of each output file of a 64 x 16 run at alpha 0.2 with 4
# samples, its time column left out, as the code wrote them when every
# check passed; a change that keeps the arithmetic keeps these values
PINNED_LAST_ROWS = {
    "model": {"growth.csv": (1.0186043107826435, 1.7685797188378538,
                             0.6304509633800043, 0.10172257072916752)},
    "linear": {"growth.csv": (1.0186059463565567, 1.7691590717934587,
                              0.6309925191223023, 0.1017518098631703)},
    "full": {"growth.csv": (1.013887914158215, 1.7683186509429356,
                            0.6307548848769949, 0.1015367434016826)},
    "remainder": {
        "growth.csv": (1.013887914158215, 1.7683186509429356,
                       0.6307548848769949, 0.1015367434016826),
        "remainder.csv": (0.016274602569655294, 0.027145150390113806,
                          1.013887914158215, 1.0186043107826435)},
}


@pytest.mark.parametrize("kind", sorted(PINNED_LAST_ROWS))
def test_run_outputs_match_their_pinned_values(tmp_path, kind):
    out = tmp_path / kind
    cli.run(cli.validate_config({
        "run.kind": kind, "alpha": 0.2, "grid.n_r": 64, "grid.n_theta": 16,
        "time.sample_count": 4, "output.dir": str(out)}))
    for name, want in PINNED_LAST_ROWS[kind].items():
        got = np.loadtxt(out / name, delimiter=",", skiprows=1)[-1, 1:]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_sweep_layout_and_scaling_report(tmp_path):
    out = tmp_path / "sweep"
    cfg = cli.parse_config(write_config(tmp_path, (
        "alpha = 0.2\nrun.kind = sweep\nrun.alphas = 0.4,0.2,0.1\n"
        "grid.n_r = 128\ngrid.n_theta = 24\ntime.sample_count = 5\n"
        "output.dir = %s\n" % out)))
    manifest = cli.run(cfg)
    assert manifest["error"] is None
    for a in ("0.4", "0.2", "0.1"):
        member = out / ("alpha_" + a)
        assert (member / "remainder.csv").exists()
        assert (member / "growth.csv").exists()
        echo = load_manifest(member)["config"]
        assert echo["run.kind"] == "remainder"
        assert echo["alpha"] == float(a)
        assert echo["output.dir"] == str(member)
    with open(os.path.join(str(out), "scaling_report.csv"),
              encoding="utf-8") as fh:
        header = fh.readline().strip()
        body = fh.read().splitlines()
    assert header == "alpha,max_rem_sup,fit_exponent_cumulative"
    listed = [float(line.split(",")[0]) for line in body]
    assert listed == [0.4, 0.2, 0.1]
    assert body[0].endswith("nan")
    peaks = [float(line.split(",")[1]) for line in body]
    assert all(p > 0 for p in peaks)
    assert "scaling_exponent" in manifest["checks"]


def test_sweep_stats_give_the_local_slopes_of_the_scaling_report(tmp_path):
    out = tmp_path / "sweep"
    manifest = cli.run(cli.parse_config(write_config(tmp_path, (
        "run.kind = sweep\nrun.alphas = 0.4,0.2,0.1\ngrid.n_r = 128\n"
        "grid.n_theta = 16\ntime.sample_count = 4\noutput.dir = %s\n"
        % out))))
    slopes = manifest["stats"]["local_slopes"]
    assert slopes == load_manifest(out)["stats"]["local_slopes"]
    report = np.loadtxt(os.path.join(str(out), "scaling_report.csv"),
                        delimiter=",", skiprows=1)
    alphas, peaks = report[:, 0], report[:, 1]
    want = np.log(peaks[:-1] / peaks[1:]) / np.log(alphas[:-1] / alphas[1:])
    assert np.allclose(slopes, want, rtol=1e-12, atol=0.0)
    # the mismatch falls faster as alpha halves: no single power law
    # holds at desk scale (0.18 and 0.47 on the default sweep)
    assert 0.0 < slopes[0] < slopes[1]


def test_remainder_reports_measured_support_reach(tmp_path):
    out = tmp_path / "rem"
    manifest = cli.run(cli.parse_config(write_config(tmp_path, (
        "alpha = 0.3\nrun.kind = remainder\ntime.sample_count = 4\n"
        "grid.n_r = 96\ngrid.n_theta = 16\noutput.dir = %s\n" % out))))
    status = load_manifest(out)["checks"]["support_containment"]
    assert status == manifest["checks"]["support_containment"]
    got = re.fullmatch(r"pass \(peak reach (\S+), threshold (\S+)\)", status)
    reach, threshold = float(got.group(1)), float(got.group(2))
    # the unit bump's Omega_2 has sup below 1, so the threshold is 1e-4
    assert threshold == 1e-4
    # the source deposits a small tail in the outer band, well inside it
    assert 0.0 < reach < threshold


def test_full_and_remainder_manifests_report_march_stats(tmp_path):
    # both kinds march the same full system, so they report the same
    # stats and write the same growth.csv; a model run reports its own,
    # and a linear run none. growth.csv has one writer, and it checks the
    # sup and l2 columns of every kind
    stats = {}
    for kind in ("remainder", "full", "model", "linear"):
        out = tmp_path / kind
        config = cli.parse_config(write_config(tmp_path, (
            "alpha = 0.3\nrun.kind = %s\ntime.sample_count = 6\n"
            "grid.n_r = 96\ngrid.n_theta = 16\noutput.dir = %s\n"
            % (kind, out)), name=kind + ".txt"))
        manifest = cli.run(config)
        on_disk = load_manifest(out)
        assert on_disk["checks"]["finite_norms"] == "pass"
        if kind == "linear":
            assert "stats" not in on_disk
            continue
        assert on_disk["stats"] == manifest["stats"]
        stats[kind] = got = on_disk["stats"]
        if kind == "model":
            assert sorted(got) == ["profile_steps", "profile_steps_marched",
                                   "z_max"]
            # z_max = T max L(f0) / alpha, and the table takes steps of
            # 0.01 in log z from 1e-3 to it, of which this run marched
            # those past the process's table
            assert 0 <= got["profile_steps_marched"] <= got["profile_steps"]
            f0 = cli.build_profile(config, cli.build_grids(config)[0])
            L0max = float(np.max(profile_tail(f0).values))
            T = 0.1 * 0.3 * abs(np.log(0.3))
            assert got["z_max"] == pytest.approx(T * L0max / 0.3, rel=1e-14)
            assert got["profile_steps"] == int(
                np.ceil(np.log(got["z_max"] / 1e-3) / 0.01))
            continue
        if kind == "remainder":
            # the peak of remainder.csv's rem_sup column, as marched
            rem = np.loadtxt(os.path.join(str(out), "remainder.csv"),
                             delimiter=",", skiprows=1, ndmin=2)
            assert got.pop("peak_rem_sup") == float(np.max(rem[:, 1])) > 0.0
        assert sorted(got) == ["cfl_utilisation_max", "cfl_utilisation_min",
                               "dt_max", "dt_min", "local_error_max",
                               "march_s", "sampling_s", "steps"]
        # wall times, which differ between the two kinds' runs
        for key in ("march_s", "sampling_s"):
            assert 0.0 <= got.pop(key) < manifest["wall_time_s"]
        # fewer steps than the 5 sample intervals, each within its bound
        assert 1 <= got["steps"] < 5
        assert 0.0 < got["dt_min"] <= got["dt_max"] <= 0.05 * 0.3
        assert (0.0 < got["cfl_utilisation_min"]
                <= got["cfl_utilisation_max"] <= 1.0)
        assert 0.0 < got["local_error_max"] < 1e-3
    assert stats["full"] == stats["remainder"]
    assert ((tmp_path / "full" / "growth.csv").read_bytes()
            == (tmp_path / "remainder" / "growth.csv").read_bytes())
    assert not (tmp_path / "full" / "remainder.csv").exists()


@pytest.mark.parametrize("kind,alpha", [("remainder", "1e-16"),
                                        ("full", "1e-12")])
def test_full_march_steps_at_a_tiny_alpha(tmp_path, kind, alpha):
    # the march's sample tolerance and step floor must scale with the
    # horizon and the step cap: at 1e-16 the horizon is 3.7e-16, and at
    # 1e-12 the 0.05 alpha step cap is 5e-14
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "alpha = %s\nrun.kind = %s\ngrid.n_r = 64\ngrid.n_theta = 16\n"
        "time.sample_count = 4\noutput.dir = %s\n" % (alpha, kind, out)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", path]) == 0
    assert load_manifest(out)["stats"]["steps"] > 0
    rows = np.loadtxt(os.path.join(str(out), "growth.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    # the full field grows from its initial sup
    assert rows[-1, 1] > rows[0, 1]


def test_manifest_written_on_numerical_failure(tmp_path, capsys):
    out = tmp_path / "fail"
    path = write_config(tmp_path, (
        "alpha = 0.4\nrun.kind = remainder\ngrid.r_max = 3.8\n"
        "time.sample_count = 5\ngrid.n_r = 255\ngrid.n_theta = 64\n"
        "output.dir = %s\n" % out))
    code = cli.main(["run", path])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    on_disk = load_manifest(out)
    assert on_disk["error"]["type"] == "SupportEscapeError"
    assert "enlarge r_max" in on_disk["error"]["message"]
    assert on_disk["error"]["stage"] == "check_support"


@pytest.mark.parametrize("kind", ["full", "remainder"])
def test_underflowing_alpha_exits_3_with_manifest(tmp_path, capsys, kind):
    # at alpha = 1e-300, alpha^2 underflows to zero and the mode-0 solve
    # would divide by it; the solver says so before numpy can warn
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "alpha = 1e-300\nrun.kind = %s\ngrid.n_r = 64\ngrid.n_theta = 16\n"
        "time.sample_count = 4\noutput.dir = %s\n" % (kind, out)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", path]) == 3
    assert "alpha^2 underflows" in capsys.readouterr().err
    error = load_manifest(out)["error"]
    assert error["type"] == "EllipticError"
    assert "alpha^2 underflows" in error["message"]
    assert error["stage"] == "_solve_mode_low"


def test_sweep_member_failure_writes_both_manifests(tmp_path, capsys):
    out = tmp_path / "sweep"
    path = write_config(tmp_path, (
        "alpha = 0.4\nrun.kind = sweep\nrun.alphas = 0.4\n"
        "grid.r_max = 3.8\ntime.sample_count = 5\ngrid.n_r = 255\n"
        "grid.n_theta = 64\noutput.dir = %s\n" % out))
    assert cli.main(["run", path]) == 3
    assert "sweep member alpha=0.4 failed" in capsys.readouterr().err
    member = load_manifest(out / "alpha_0.4")
    assert member["error"]["type"] == "SupportEscapeError"
    assert member["config"]["run.kind"] == "remainder"
    # the member's stage survives its way back from the worker
    assert member["error"]["stage"] == "check_support"
    assert load_manifest(out)["error"] == dict(
        member["error"], type="NumericalError",
        message="sweep member alpha=0.4 failed: " + member["error"]["message"])


def test_sweep_member_bad_table_exits_2_with_every_manifest(tmp_path,
                                                          capsys):
    # a member finds the bad table when it reads it; the sweep fails as the
    # config error it is, naming the member
    out = tmp_path / "sweep"
    path = write_config(tmp_path, (
        "run.kind = sweep\ninitial.kind = table\ninitial.table_path = %s\n"
        "grid.n_r = 64\ngrid.n_theta = 16\ntime.sample_count = 4\n"
        "output.dir = %s\n" % (tmp_path / "missing.txt", out)))
    assert cli.main(["run", path]) == 2
    assert "sweep member alpha=0.4: cannot read initial table" in (
        capsys.readouterr().err)
    assert load_manifest(out)["error"]["type"] == "ConfigError"
    for alpha in ("0.4", "0.2", "0.1"):
        member = load_manifest(out / ("alpha_" + alpha))
        assert member["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("delta", ["1e160", "1e300"])
@pytest.mark.parametrize("kind", ["model", "linear", "full", "remainder",
                                  "sweep"])
def test_overflowing_amplitude_is_measured_not_a_warning(tmp_path, capsys,
                                                         kind, delta):
    # squares of these amplitudes pass the float range: model and linear
    # runs write their non-finite l2 and fail finite_norms, and the full
    # system's tendency stops the run as a numerical error, with warnings
    # as errors as in CI
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "run.kind = %s\nrun.alphas = 0.4\ndelta = %s\ngrid.n_r = 64\n"
        "grid.n_theta = 16\ntime.sample_count = 4\noutput.dir = %s\n"
        % (kind, delta, out)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", path])
    manifest = load_manifest(out)
    if kind in ("model", "linear"):
        assert code == 0 and manifest["error"] is None
        assert manifest["checks"]["finite_norms"] == "fail"
        # a non-finite gap of the linear run's check fails it too
        if kind == "linear":
            assert manifest["checks"]["closed_form"].startswith("fail: ")
        rows = np.loadtxt(os.path.join(str(out), "growth.csv"),
                          delimiter=",", skiprows=1)
        assert not np.all(np.isfinite(rows[:, 2]))
        return
    assert code == 3
    assert "overflow" in capsys.readouterr().err
    assert manifest["error"]["type"] == "NumericalError"
    assert manifest["error"]["stage"] == "rhs_full"


def test_linear_run_past_the_float_range_exits_3_with_manifest(tmp_path,
                                                               capsys):
    # at a huge horizon the marched check field passes the float range at
    # amplitude 1; the run says so and names the stage, with warnings as
    # errors
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "run.kind = linear\ntime.horizon_factor = 1e300\ngrid.n_r = 64\n"
        "grid.n_theta = 16\ntime.sample_count = 4\noutput.dir = %s\n" % out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", path]) == 3
    assert "numerical failure (step_linear)" in capsys.readouterr().err
    error = load_manifest(out)["error"]
    assert error["type"] == "NumericalError"
    assert "non-finite vorticity" in error["message"]
    assert error["stage"] == "step_linear"


def test_validation_bounds_the_amplitude_and_the_full_march():
    # delta is the amplitude, bounded on both sides; 0 is a quiescent run
    for delta in (0.0, 1e300):
        cli.validate_config({"delta": delta})
    for delta in (-1.0, 1e308, 1.79e308):
        with pytest.raises(ConfigError,
                           match=r"delta must lie in \[0, 1e\+300\]"):
            cli.validate_config({"delta": delta})
    # horizon_factor |log alpha| / 0.05 steps at the least: at alpha = 0.1
    # the bound of 1e5 falls between horizon factors 2171 and 2172
    assert cli.MAX_FULL_STEPS == 1e5
    for kind in ("full", "remainder"):
        cli.validate_config({"run.kind": kind, "time.horizon_factor": 2171.0})
        with pytest.raises(ConfigError, match="time.horizon_factor = 2172"):
            cli.validate_config({"run.kind": kind,
                                 "time.horizon_factor": 2172.0})
    # a sweep marches its run.alphas, not alpha; the largest count decides
    sweep = {"run.kind": "sweep", "alpha": 1e-300,
             "time.horizon_factor": 1000.0}
    cli.validate_config(dict(sweep, **{"run.alphas": "0.4,0.2"}))
    with pytest.raises(ConfigError, match="needs at least 1.38e\\+05"):
        cli.validate_config(dict(sweep, **{"run.alphas": "0.4,0.001"}))
    # model and linear runs make no full march
    for kind in ("model", "linear"):
        cli.validate_config({"run.kind": kind, "time.horizon_factor": 1e300})


@pytest.mark.parametrize("factor", ["time.horizon_factor = 1e300",
                                    "time.dt_factor = 1e-300"],
                         ids=["horizon", "dt"])
def test_model_run_work_is_bounded_by_the_profile(tmp_path, factor):
    # a model run's work is its profile table, ceil(log(z_max / 1e-3) /
    # 0.01) steps, so it ends at any horizon and any dt_factor: a finite
    # z_max gives fewer than (log(float max) - log(1e-3)) / 0.01 + 1 steps
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "%s\ngrid.n_r = 64\ngrid.n_theta = 16\ntime.sample_count = 4\n"
        "output.dir = %s\n" % (factor, out)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", path])
    manifest = load_manifest(out)
    assert code == 0 and manifest["error"] is None
    assert all(status == "pass" for status in manifest["checks"].values())
    bound = (np.log(sys.float_info.max) - np.log(1e-3)) / 0.01 + 1
    assert 0 < manifest["stats"]["profile_steps"] < bound < 71700


def test_model_run_with_an_overflowing_z_exits_3_with_manifest(tmp_path,
                                                              capsys):
    # T / alpha = 1e308 |log alpha| passes the float range: the profile
    # refuses the infinite z_max, with warnings as errors
    out = tmp_path / "out"
    path = write_config(tmp_path, (
        "alpha = 1e-300\ntime.horizon_factor = 1e308\ngrid.n_r = 64\n"
        "grid.n_theta = 16\ntime.sample_count = 4\noutput.dir = %s\n" % out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", path]) == 3
    assert "finite z_max" in capsys.readouterr().err
    error = load_manifest(out)["error"]
    assert error["type"] == "ValueError" and "finite z_max" in error["message"]


def verify_margin(printed, name):
    """The margin a verify suite printed on the line of check `name`."""
    line = next(ln for ln in printed.splitlines() if ln.split()[1] == name)
    return float(re.search(r"margin (\S+) to ", line).group(1))


def test_main_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, "alpha = 7\n")
    assert cli.main(["run", bad]) == 2
    assert "config error" in capsys.readouterr().err
    assert cli.main(["run", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()
    # a file that is not UTF-8 is a config the run cannot read
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"alpha = 0.2\n# \xff\n")
    assert cli.main(["run", str(undecodable)]) == 2
    assert "config error: cannot read config" in capsys.readouterr().err
    assert cli.main(["verify-elliptic"]) == 0
    printed = capsys.readouterr().out
    assert "ok" in printed and "FAIL" not in printed
    assert 0.0 < verify_margin(printed, "split-remainder-bound") < 0.0625
    assert cli.main(["verify-oracle"]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed
    assert 0.0 < verify_margin(printed, "closed-form-value") < 1e-6
    assert 0.0 < verify_margin(printed, "profile-closed-form") < 1e-10
    assert "ok   profile-order" in printed
    assert cli.main(["verify-kernel"]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed and "memo-table" not in printed
    for name in ("closed-form-identity", "kernel-sandwich",
                 "production-vs-quadrature", "zero-exponent-reduction"):
        assert "ok   " + name in printed


def test_table_initial_kind(tmp_path):
    R = np.linspace(1.2, 2.8, 33)
    vals = np.maximum(0.0, 1.0 - ((R - 2.0) / 0.8) ** 2)
    table = tmp_path / "profile.txt"
    np.savetxt(str(table), np.column_stack([R, vals]))
    out = tmp_path / "out"
    cfg = cli.parse_config(write_config(tmp_path, (
        "alpha = 0.2\ninitial.kind = table\ninitial.table_path = %s\n"
        "time.sample_count = 4\ngrid.n_r = 96\ngrid.n_theta = 16\n"
        "output.dir = %s\n" % (table, out))))
    manifest = cli.run(cfg)
    assert manifest["error"] is None
    rows = np.genfromtxt(os.path.join(str(out), "growth.csv"),
                         delimiter=",", names=True)
    assert rows["sup_norm"][0] == pytest.approx(1.0, rel=1e-3)
    # tables whose support dips under R = 1 are rejected like the
    # parametric shapes
    low = tmp_path / "low.txt"
    np.savetxt(str(low), np.column_stack([R - 0.5, vals]))
    with pytest.raises(ConfigError, match="support must avoid"):
        cli.run(cli.parse_config(write_config(tmp_path, (
            "alpha = 0.2\ninitial.kind = table\ninitial.table_path = %s\n"
            "output.dir = %s\n" % (low, out)), name="low.cfg")))
    with pytest.raises(ConfigError, match="table_path is required"):
        cli.parse_config(write_config(
            tmp_path, "alpha = 0.2\ninitial.kind = table\n", name="nt.cfg"))
