"""Structure gates (AST walks over ``src/``): the driver stays a pipeline
of short phases, kernel decisions stay behind ``LocalKernel``, the SPMD
body has exactly one launch site, the rank program stays a loop, and
recovering from a rank death stays the driver's business."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
DRIVER = SRC / "summa" / "batched.py"
MAX_FUNCTION_LINES = 150


def functions(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _grep(pattern, paths):
    return [
        f"{path.relative_to(SRC)}:{n}: {line.strip()}"
        for path in paths
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


CONTEXT = SRC / "dist" / "context.py"
RANK_BODY = SRC / "summa" / "core.py"
RANK_LOOP = SRC / "summa" / "exec.py"
DESIGN = SRC.parent.parent / "DESIGN.md"


def _rule_id(path):
    # the files the rule began with keep the ids they had (bare names for the
    # four driver files and mp/); the rest are named by their path
    if path.parent.name == "mp" or path in (DRIVER, CONTEXT, RANK_BODY, RANK_LOOP):
        return path.name
    return str(path.relative_to(SRC if path.parent != SRC else SRC.parent))


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=_rule_id)
def test_no_long_functions_in_the_drivers(path):
    long = {
        fn.name: fn.end_lineno - fn.lineno + 1
        for fn in functions(path)
        if fn.end_lineno - fn.lineno + 1 > MAX_FUNCTION_LINES
    }
    assert not long, f"split into phases (> {MAX_FUNCTION_LINES} lines): {long}"


def _imports(path, package):
    """``(module, name)`` per import in a file; relative imports resolve
    against ``package`` (dotted), ``import x.y`` is ``("x.y", None)``."""
    here = package.split(".")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = here[: len(here) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield from ((module, alias.name) for alias in node.names)


def test_no_module_is_reached_only_by_its_package_init_and_the_tests():
    """The reachability audit's static half (``benchmarks/reach.py`` is the
    dynamic one): every module under ``src/repro`` is imported — directly,
    or as a name its package re-exports — by another part of the program,
    a benchmark or an example.  What only its own ``__init__`` and
    ``tests/`` import has no caller to break."""
    src = SRC.parent
    files = {}  # path -> (dotted name, package its relative imports start at)
    for path in SRC.rglob("*.py"):
        name = ".".join(path.relative_to(src).with_suffix("").parts)
        if path.name == "__init__.py":
            name = name[: -len(".__init__")]
        files[path] = (name, name if path.name == "__init__.py"
                       else name.rpartition(".")[0])
    modules = {name for path, (name, _) in files.items()
               if path.name != "__init__.py"}
    exported = {}  # (package, name) -> the submodule / subpackage it is from
    for path, (name, package) in files.items():
        if path.name == "__init__.py":
            exported.update(
                ((package, what), module)
                for module, what in _imports(path, package)
                if module.startswith(package + ".")
            )
    for top in ("benchmarks", "examples"):
        files.update((path, (None, "")) for path in (src.parent / top).rglob("*.py"))
    used = set()
    for path, (own, package) in files.items():
        for module, what in _imports(path, package):
            if path.name == "__init__.py" and module.startswith(package + "."):
                continue  # a package re-exporting its own module is not a use
            target = f"{module}.{what}" if f"{module}.{what}" in modules else module
            while (target, what) in exported:
                target = exported[target, what]
            if target != own:
                used.add(target)
    orphans = sorted(modules - used - {"repro.__main__", "repro.cli"})
    assert not orphans, orphans


def _names_a_kernel(node):
    """``kern.name`` / ``kernel.name``, or a bare ``kernel`` variable."""
    if isinstance(node, ast.Attribute) and node.attr == "name":
        node = node.value
        return isinstance(node, ast.Name) and node.id in ("kern", "kernel")
    return isinstance(node, ast.Name) and node.id == "kernel"


def test_drivers_never_branch_on_a_kernel_name():
    """What a kernel composes with is a capability it declares
    (``postprocess_mask``, ``checkpointable``, ``row_batchable``, operand
    kinds, ``resolve_aux``), not a name the drivers compare."""
    offenders = []
    for package in ("summa", "dist", "serve"):
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Compare):
                    continue
                sides = [node.left, *node.comparators]
                literal = any(
                    isinstance(s, ast.Constant) and isinstance(s.value, str)
                    or isinstance(s, (ast.Tuple, ast.List, ast.Set))
                    for s in sides
                )
                if literal and any(_names_a_kernel(s) for s in sides):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders


def test_spmd_body_is_launched_from_the_execute_phase_only():
    body = "spmd_batched_summa3d"
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "summa" / "core.py":  # its definition
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:  # uses are attributed to the top-level def
            sites += [
                (str(path.relative_to(SRC)), getattr(top, "name", "<module>"))
                for node in ast.walk(top)
                if isinstance(node, ast.Name) and node.id == body
            ]
    assert sites, "the driver must launch the SPMD body somewhere"
    assert set(sites) == {("summa/batched.py", "_launch")}, sites


def test_context_regions_are_module_level():
    """What runs in the ranks is a named, module-level region over the
    rank's store — a started process world cannot be handed a closure —
    and no tile lives driver-side (the fork-per-region path kept them in
    ``DistContext._tiles``)."""
    tree = ast.parse(CONTEXT.read_text())
    nested = [
        fn.name
        for top in ast.walk(tree)
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
        for fn in ast.walk(top)
        if fn is not top
        and isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(arg.arg == "comm" for arg in fn.args.args)
    ]
    assert not nested, nested
    # the issue's gate, verbatim: grep -n "_tiles\b" is empty
    hits = [
        f"{n}: {line.strip()}"
        for n, line in enumerate(CONTEXT.read_text().splitlines(), 1)
        if re.search(r"_tiles\b", line)
    ]
    assert not hits, hits


def test_the_rank_program_is_a_loop_not_an_ir():
    """No closure factories in ``summa/exec.py``; ``overlap`` branches in
    one place; and the names of the compile-then-interpret machinery are
    gone from ``src/`` (the issue's grep gate, verbatim)."""
    nested = [
        getattr(fn, "name", "<lambda>")
        for top in functions(RANK_LOOP)
        for fn in ast.walk(top)
        if fn is not top
        and isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    assert not nested, nested
    compared = [
        f"{path.name}:{node.lineno}"
        for path in (RANK_LOOP, RANK_BODY)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare)
        for side in (node.left, *node.comparators)
        if getattr(side, "attr", getattr(side, "id", None)) == "overlap"
    ]
    assert len(compared) == 1, compared
    gone = re.compile(
        "StageOp|ExecutionPlan|SequentialExecutor|PipelinedExecutor"
        "|compile_batched_summa3d|get_executor|mem_delta|prefetch_issuers"
    )
    assert not _grep(gone, sorted(SRC.rglob("*.py")))


def test_design_inventory_names_every_package_and_summa_module():
    inventory = DESIGN.read_text().split("## 3. Package inventory")[1]
    inventory = inventory.split("\n## ")[0]
    packages = [p.name + "/" for p in SRC.iterdir() if (p / "__init__.py").exists()]
    modules = [
        p.name for p in (SRC / "summa").glob("*.py") if p.name != "__init__.py"
    ]
    missing = [name for name in packages + modules if name not in inventory]
    assert not missing, missing


ENGINES = [
    *sorted((SRC / "simmpi").rglob("*.py")), *sorted((SRC / "mp").rglob("*.py")),
]


def test_the_engines_do_not_know_what_healing_is():
    """A rank death leaves a region as a ``RankCrashError`` and re-enters
    through the driver's amend loop; the issue's two grep gates, verbatim:
    nothing under ``simmpi/`` or ``mp/`` names the concept, and the
    in-world protocol's classes are gone from ``src/``."""
    concept = re.compile("heal|membership|revoke|respawn|spare", re.I)
    assert not _grep(concept, ENGINES)
    protocol = re.compile(
        "RankRevokedError|HealingBody|MpMembership|_HealProxy|epoch_comm"
    )
    assert not _grep(protocol, sorted(SRC.rglob("*.py")))
    assert not (SRC / "simmpi" / "membership.py").exists()


def test_a_rank_death_is_recovered_in_one_function():
    sites = {
        (path.name, top.name)
        for path in sorted((SRC / "summa").glob("*.py"))
        for top in functions(path)
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "RankCrashError"
    }
    assert sites == {("batched.py", "_amend")}, sites


def test_the_supervisors_share_one_settle_rule():
    """``ThreadWorld.submit`` is launch → join → settle, and what is left
    common to both carriers — how a region ends — is one function."""
    thread_engine = SRC / "simmpi" / "engine.py"
    (submit,) = [
        fn for cls in ast.walk(ast.parse(thread_engine.read_text()))
        if isinstance(cls, ast.ClassDef) and cls.name == "ThreadWorld"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "submit"
    ]
    assert submit.end_lineno - submit.lineno + 1 <= 60
    spawners = [
        fn.name
        for fn in ast.walk(submit)
        if fn is not submit
        and isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(node, ast.Attribute) and node.attr in ("Thread", "start")
            for node in ast.walk(fn)
        )
    ]
    assert not spawners, spawners
    # the rule — SpmdError over the genuine failures — is written once...
    raisers = {
        (path.name, fn.name)
        for path in ENGINES
        for fn in functions(path)
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "SpmdError"
    }
    assert raisers == {("engine.py", "settle")}, raisers
    assert [fn.name for fn in functions(thread_engine)].count("settle") == 1
    # ...and both engines end a region through it
    for path in (thread_engine, SRC / "mp" / "engine.py"):
        calls = [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "settle"
        ]
        assert calls, path


GEOMETRY = [
    *sorted((SRC / "grid").rglob("*.py")), *sorted((SRC / "summa").rglob("*.py")),
]


def test_grid_communicators_are_derived_not_negotiated():
    """No run path calls ``split`` on a communicator: ``GridComms.build``
    derives the four groups locally (``SimComm.split`` stays as the
    general MPI-style API, exercised by ``tests/simmpi``)."""
    split_call = re.compile(r"\.split\(")
    assert not _grep(
        split_call, [*GEOMETRY, *sorted((SRC / "dist").rglob("*.py"))]
    )


def test_partition_boundaries_come_from_split_bounds_only():
    """``sparse.ops.split_bounds`` is the one place that turns ``(n,
    nparts)`` into boundaries; under ``grid/`` and ``summa/`` nothing
    builds a partition of its own — the only ``divmod`` left turns a rank
    into grid coordinates."""
    builders = re.compile(r"np\.(full|linspace|array_split)\(")
    assert not _grep(builders, GEOMETRY)
    divmods = {
        (path.name, fn.name)
        for path in GEOMETRY
        for fn in functions(path)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "divmod"
    }
    assert divmods == {("grid3d.py", "coords"), ("baselines.py", "_spmd_cannon")}
    cached = [
        fn for fn in functions(SRC / "sparse" / "ops.py")
        if fn.name == "split_bounds"
    ]
    assert len(cached) == 1 and any(
        "lru_cache" in ast.unparse(dec) for dec in cached[0].decorator_list
    )


#: the run knobs, written out: a field added or removed shows up here
SPEC_FIELDS_NOW = (
    "nprocs", "layers", "batches", "memory_budget", "enforce", "semiring",
    "kernel", "keep_output", "batch_scheme", "merge_policy", "comm_backend",
    "overlap", "timeout", "checksums", "max_retries", "checkpoint_dir",
    "resume", "checkpoint_keep_last", "heal", "world_spares", "world",
    "transport", "replan", "max_replans", "replan_force",
)


def test_the_run_knobs_are_these_25():
    from repro.plan.spec import SPEC_FIELDS

    assert SPEC_FIELDS == SPEC_FIELDS_NOW and len(SPEC_FIELDS) == 25


def _parameters(path, qualname):
    """Parameter names of ``Class.method`` / ``function`` in ``path``."""
    body = ast.parse(path.read_text()).body
    for part in qualname.split("."):
        (node,) = [n for n in body if getattr(n, "name", None) == part]
        body = node.body
    args = node.args
    return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}


def test_a_run_knob_is_declared_once():
    """Below the keyword surfaces a knob travels inside the spec: the rank
    body, the rank's state and the resident context's two multiplies
    redeclare none of its fields.  Excepted are what an amendment rewrites
    between submits (``batches`` / ``comm_backend`` / ``replan``) and what
    was *resolved* from a field — the kernel, and on the state the
    semiring object its steps hand to the local kernels."""
    resolved = {"batches", "comm_backend", "replan", "kernel"}
    (state,) = [
        node for node in ast.parse(RANK_LOOP.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "RankState"
    ]
    declared = {
        "spmd_batched_summa3d": _parameters(RANK_BODY, "spmd_batched_summa3d"),
        "RankState": {
            stmt.target.id for stmt in state.body
            if isinstance(stmt, ast.AnnAssign)
        } - {"semiring"},
        "DistContext.multiply": _parameters(CONTEXT, "DistContext.multiply"),
        "DistContext.spmm": _parameters(CONTEXT, "DistContext.spmm"),
    }
    assert "spec" in declared["spmd_batched_summa3d"] & declared["RankState"]
    redeclared = {
        where: sorted(names & set(SPEC_FIELDS_NOW) - resolved)
        for where, names in declared.items()
    }
    assert not any(redeclared.values()), redeclared


def test_suite_is_a_word_of_the_sparse_layer():
    """The (multiply, merge) bundles are Table VII's subjects in
    ``sparse/``; the distributed layers reach them as tiers of the SpGEMM
    kernel (``kernels/spgemm.py``).  Elsewhere the word is left in the two
    non-SUMMA baselines, ``repro doctor`` and the stored-plan shim."""
    allowed = ("sparse/", "kernels/spgemm.py", "summa/baselines.py",
               "summa/verify.py", "plan/spec.py")
    hits = _grep(re.compile("suite"), [
        path for path in sorted(SRC.rglob("*.py"))
        if not str(path.relative_to(SRC)).startswith(allowed)
    ])
    assert not hits, hits
    # in plan/spec.py: ExecSpec.from_dict and the table of removed knobs
    shim = [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(ast.parse((SRC / "plan" / "spec.py").read_text()))
        if getattr(node, "name", None) == "from_dict"
        or isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "_REMOVED"
    ]
    stray = [
        hit for hit in _grep(re.compile("suite"), [SRC / "plan" / "spec.py"])
        if not any(int(hit.split(":")[1]) in lines for lines in shim)
    ]
    assert not stray, stray
