import ast
import os
import re
import subprocess
import sys

import cavity_gates

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cavity_gates.__file__)))


def test_package_imports_without_scipy():
    """scipy is a test-only dependency: importing the package, its CLI and
    its figure builders must not load it. Nor may they load `concurrent`
    (an eager thread pool), `logging`, `configparser` (the config reader
    is `config._read_ini`) or `numpy.polynomial`, which cost start-up time
    and memory."""
    code = ("import sys, cavity_gates, cavity_gates.cli, cavity_gates.figures; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent', 'logging', 'configparser') "
            "or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_one_eigenbasis_trust_rule():
    """The eigenbasis trust decision lives in `linalg` alone: no other module
    eigensolves (a private eigensolve, closed-form or numpy's, would bypass
    the trust rule), computes a condition number, solves or inverts in an
    eigenbasis or keeps its own condition-number limit."""
    package = os.path.dirname(os.path.abspath(cavity_gates.__file__))
    pattern = re.compile(r"np\.linalg\.(cond|solve|inv|eig\w*)\b|\w*_COND_LIMIT\b")
    offenders = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "linalg.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                offenders += [f"{name}:{i}: {m.group(0)}" for i, line in enumerate(fh, 1)
                              for m in pattern.finditer(line)]
    assert offenders == []


def test_one_result_builder():
    """Results are built in `params` alone (`gate_results`, `GateResults`):
    no other module constructs a GateResult itself."""
    package = os.path.dirname(os.path.abspath(cavity_gates.__file__))
    offenders = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "params.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                offenders += [f"{name}:{i}" for i, line in enumerate(fh, 1)
                              if re.search(r"\bGateResult\(", line)]
    assert offenders == []


def test_one_gate_time_and_convergence_owner():
    """A gate time out of range is refused in `params.gate_results` alone:
    its two NonFinite messages are built in `params` and nowhere else, and
    no config class has a `gate_time_refusals` hook. ConvergenceFailure is
    constructed in `lindblad` alone (the Raman closure's untrusted rows):
    `linalg.solve` raises nothing."""
    package = os.path.dirname(os.path.abspath(cavity_gates.__file__))
    patterns = {"gate time": r'NonFinite\("gate_time (is not finite|must be > 0)',
                "ConvergenceFailure": r"(?<!class )\bConvergenceFailure\("}
    owners = {kind: [] for kind in patterns}
    hooks = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                text = fh.read()
            for kind, pattern in patterns.items():
                owners[kind] += [name] * len(re.findall(pattern, text))
            hooks += [f"{name}:{node.name}" for node in ast.walk(ast.parse(text))
                      if isinstance(node, ast.ClassDef)
                      and any(getattr(item, "name", None) == "gate_time_refusals"
                              for item in node.body)]
    assert owners == {"gate time": ["params.py"] * 2, "ConvergenceFailure": ["lindblad.py"]}
    assert hooks == []


def test_one_cli_error_boundary():
    """The CLI maps errors to exit codes in one place: `sys.exit` is called
    in `_fail` alone, and a ConfigError or CavityGateError is caught only by
    the `_boundary` decorator and by `sweep_cmd` for a point whose config
    fails. A point whose evaluation fails is a refused row of the one batch
    call, which `sweep_cmd` reads without catching anything."""
    package = os.path.dirname(os.path.abspath(cavity_gates.__file__))
    with open(os.path.join(package, "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    owners = {"sys.exit": [], "except": []}
    for function in tree.body:
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and ast.unparse(node.func) == "sys.exit"):
                    owners["sys.exit"].append(function.name)
                elif (isinstance(node, ast.ExceptHandler) and node.type is not None
                      and {"ConfigError", "CavityGateError"} & {
                          n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}):
                    owners["except"].append(function.name)
    assert owners == {"sys.exit": ["_fail"],
                      "except": ["_boundary", "_boundary", "sweep_cmd"]}


def test_no_batch_twins():
    """Each (scheme, method) has one evaluator, which takes a scalar or an
    array-valued config: no public name of the package or of its modules
    ends in `_batch`."""
    import importlib
    package = os.path.dirname(os.path.abspath(cavity_gates.__file__))
    modules = [cavity_gates] + [importlib.import_module(f"cavity_gates.{name[:-3]}")
                                for name in sorted(os.listdir(package))
                                if name.endswith(".py") and name != "__init__.py"]
    assert [f"{module.__name__}.{name}" for module in modules for name in vars(module)
            if name.endswith("_batch") and not name.startswith("_")] == []


def test_one_unit_table():
    """Units are converted in `config` alone: no other module holds a unit
    name of its tables as a string literal (a second table, converter or
    default unit)."""
    from cavity_gates import config
    units = set(config._RATE_UNITS) | set(config._TIME_UNITS)
    package = os.path.dirname(os.path.abspath(cavity_gates.__file__))
    offenders = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "config.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            offenders += [f"{name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                          if isinstance(node, ast.Constant) and node.value in units]
    assert offenders == []


def test_linalg_has_no_test_only_kernel():
    """Every public function of `linalg` is called from another module of the
    package: a kernel that only the tests call is dead code."""
    package = os.path.dirname(os.path.abspath(cavity_gates.__file__))

    def tree(name):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            return ast.parse(fh.read())

    public = {node.name for node in tree("linalg.py").body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = {node.func.attr for name in sorted(os.listdir(package))
              if name.endswith(".py") and name != "linalg.py"
              for node in ast.walk(tree(name))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "linalg"}
    assert public and sorted(public - called) == []


def test_one_thread_executor():
    """Threads start in one place: `threading` is used in one function of the
    package, the block executor `exchange.phase_fidelity`, and the block
    kernel `exchange._block_f_pi` does not call the executor (a kernel that
    splits its block again starts threads inside threads)."""
    package = os.path.dirname(os.path.abspath(cavity_gates.__file__))
    users, kernel = [], None
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    if any(isinstance(n, ast.Name) and n.id == "threading"
                           for n in ast.walk(node)):
                        users.append(f"{name[:-3]}.{node.name}")
                    if (name, node.name) == ("exchange.py", "_block_f_pi"):
                        kernel = node
    assert users == ["exchange.phase_fidelity"]
    called = {ast.unparse(n.func) for n in ast.walk(kernel) if isinstance(n, ast.Call)}
    assert kernel is not None and not {"phase_fidelity", "exchange.phase_fidelity"} & called


def test_one_exchange_f_pi_route():
    """The simple exchange has one F_pi route: `lindblad` calls neither
    `linalg.resolvent_poles` nor `linalg.return_amplitudes`, and the
    exchange branch of `gate_fidelity_lindblad` returns the numeric path's
    result, `exchange.fidelity_numeric_exchange`, relabelled."""
    package = os.path.dirname(os.path.abspath(cavity_gates.__file__))
    with open(os.path.join(package, "lindblad.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())

    def calls(node):
        return {ast.unparse(n.func).rsplit(".", 1)[-1] for n in ast.walk(node)
                if isinstance(n, ast.Call)}

    assert not {"resolvent_poles", "return_amplitudes"} & calls(tree)
    entry = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "gate_fidelity_lindblad")
    branches = [node.body for node in ast.walk(entry) if isinstance(node, ast.If)
                and ast.unparse(node.test) == "isinstance(config, ExchangeConfig)"]
    assert len(branches) == 1
    assert "fidelity_numeric_exchange" in set().union(*(calls(node) for node in branches[0]))


def test_no_orphaned_private_code():
    """Every module-level private function or class of the package is
    referenced in `src/` outside its own definition: a helper that only the
    tests call, or that a refactor left behind, is dead code. (This
    generalises `test_linalg_has_no_test_only_kernel` to private names of
    every module.)"""
    from collections import Counter
    package = os.path.dirname(os.path.abspath(cavity_gates.__file__))

    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read())
    used = sum((names(tree) for tree in trees.values()), Counter())
    orphans = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and used[node.name] <= names(node)[node.name]]
    assert orphans == []
