#!/usr/bin/env python
"""CI gate for the documentation tree.

Eight checks, two over every tracked Markdown file:

1. **Links** — every intra-repo link (``[text](path)`` and
   ``[text](path#anchor)``) must resolve to an existing file, and when
   it carries an anchor, to a heading in that file (GitHub slug rules).
   External links (``http(s)://``, ``mailto:``) are not fetched.
2. **Runnable snippets** — fenced code blocks whose info string is
   ``python runnable`` are executed with ``PYTHONPATH=src`` from the
   repo root; a non-zero exit fails the check.  Mark a snippet runnable
   only when it is self-contained and fast — it runs on every CI push.
3. **Span names** — every literal ``trace.span("…")`` name in
   ``src/repro`` appears backticked in ``docs/metrics.md``, so a trace
   never shows a span its reader cannot look up.
4. **Backend tags** — every store tag a job's
   ``RunConfig.evaluation_identity()`` can return (statevector, device trajectory, device density; the device
   name rendered ``<name>``) appears backticked in
   ``docs/architecture.md``, so a version bump cannot skip the docs.
5. **Cache labels** — every literal ``cache="…"`` metric label value and
   every literal ``BoundedMemo("…")`` label in ``src/repro`` (each memo
   reports under its label) is in the ``cache`` label list of the
   ``repro_cache_size`` row of ``docs/metrics.md``, so a scrape never
   shows a cache its reader cannot look up.
6. **Job fields** — every ``JobSpec`` field is named in code in
   ``docs/http_api.md``, so the service never accepts a field its
   reader cannot look up.
7. **Result keys** — every key of a job's ``result`` (``run_query``'s
   fd, top_k and dd answers on bv-6, and a scheduled variational job's
   ``result`` and ``iterations`` on qaoa-6, nested keys included) is
   named in code in ``docs/http_api.md``, so a result never carries a key
   its reader cannot look up.
8. **Pool task kinds** — the ``kind`` list of ``repro_pool_tasks_total``
   in ``docs/metrics.md`` is exactly the set of task kinds the
   ``WorkerPool`` records (every kind but the ``cache-stats`` probe).

Usage::

    python tools/check_docs.py            # check + run
    python tools/check_docs.py --no-run   # everything but the snippets

Exit status is non-zero on any broken link, failing snippet,
undocumented span name, backend tag, cache label, job field, result
key or pool task kind.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from typing import Iterator, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Directories that never hold documentation.
_SKIP_DIRS = {".git", ".ruff_cache", "__pycache__", ".pytest_cache",
              "node_modules", ".cutqc-store", "results"}

_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
_FENCE = re.compile(r"^(`{3,}|~{3,})\s*(.*)$")
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
_SPAN = re.compile(r"""trace\.span\(\s*["']([^"']+)["']""")
_CACHE_LABEL = re.compile(r"""\b(?:cache=|BoundedMemo\(\s*)["']([^"']+)["']""")
_CODE = re.compile(r"`([^`]+)`")


def markdown_files() -> List[pathlib.Path]:
    found = []
    for root, dirs, files in os.walk(REPO_ROOT):
        dirs[:] = [d for d in dirs if d not in _SKIP_DIRS]
        for name in files:
            if name.endswith(".md"):
                found.append(pathlib.Path(root) / name)
    return sorted(found)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces → '-'."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: pathlib.Path) -> set:
    slugs: set = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if match:
            slug = github_slug(match.group(1))
            # GitHub de-duplicates repeats as slug-1, slug-2, ...
            if slug in slugs:
                suffix = 1
                while f"{slug}-{suffix}" in slugs:
                    suffix += 1
                slug = f"{slug}-{suffix}"
            slugs.add(slug)
    return slugs


def iter_links(path: pathlib.Path) -> Iterator[str]:
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(line):
            yield match.group(1)


def check_links(files: List[pathlib.Path]) -> List[str]:
    errors = []
    for path in files:
        rel = path.relative_to(REPO_ROOT)
        for target in iter_links(path):
            if target.startswith(_EXTERNAL):
                continue
            # HTML-entity escapes used in tables (e.g. &lt;id&gt;)
            target = target.replace("&lt;", "<").replace("&gt;", ">")
            target, _, anchor = target.partition("#")
            if not target:  # same-file anchor
                if anchor and github_slug(anchor) not in heading_slugs(path):
                    errors.append(f"{rel}: broken anchor '#{anchor}'")
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                errors.append(f"{rel}: broken link '{target}'")
                continue
            if anchor and resolved.suffix == ".md":
                if anchor not in heading_slugs(resolved):
                    errors.append(
                        f"{rel}: broken anchor '{target}#{anchor}'"
                    )
    return errors


def check_span_names() -> List[str]:
    """Literal ``trace.span`` names in ``src/repro`` missing from the
    span list in ``docs/metrics.md``."""
    metrics_doc = REPO_ROOT / "docs" / "metrics.md"
    documented = metrics_doc.read_text(encoding="utf-8")
    missing = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for match in _SPAN.finditer(path.read_text(encoding="utf-8")):
            if f"`{match.group(1)}`" not in documented:
                missing.add((str(path.relative_to(REPO_ROOT)), match.group(1)))
    return [
        f"{source}: span '{name}' is not documented in docs/metrics.md"
        for source, name in sorted(missing)
    ]


def check_cache_labels(
    metrics_doc: pathlib.Path = REPO_ROOT / "docs" / "metrics.md",
) -> List[str]:
    """Literal ``cache="…"`` and ``BoundedMemo("…")`` labels in
    ``src/repro`` missing from the ``cache`` label list of the
    ``repro_cache_size`` row of ``metrics_doc``."""
    documented: set = set()
    for line in metrics_doc.read_text(encoding="utf-8").splitlines():
        match = re.match(r"\| `repro_cache_size` .*?`cache` \(([^)]*)\)", line)
        if match:
            documented = set(_CODE.findall(match.group(1)))
    missing = {
        (str(path.relative_to(REPO_ROOT)), match.group(1))
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for match in _CACHE_LABEL.finditer(path.read_text(encoding="utf-8"))
        if match.group(1) not in documented
    }
    return [
        f"{source}: cache label '{name}' is not in the repro_cache_size row "
        "of docs/metrics.md"
        for source, name in sorted(missing)
    ]


def check_backend_tags() -> List[str]:
    """Store tags of a job's ``RunConfig.evaluation_identity()`` that
    ``docs/architecture.md`` does not show backticked."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.job import JobSpec

    base = dict(device_size=5, benchmark="bv", qubits=6)
    specs = [JobSpec(**base)] + [
        JobSpec(**base, device="bogota", noisy_method=method)
        for method in ("trajectory", "density")
    ]
    documented = (REPO_ROOT / "docs" / "architecture.md").read_text(
        encoding="utf-8"
    )
    tags = {
        spec.run_config().evaluation_identity()["backend"].replace(
            ":bogota:", ":<name>:"
        )
        for spec in specs
    }
    return [
        f"docs/architecture.md: backend tag '{tag}' is not documented"
        for tag in sorted(tags)
        if f"`{tag}`" not in documented
    ]


def _code_words(path: pathlib.Path) -> set:
    """Every word inside a code span or a fenced block of ``path``."""
    code, fence = [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        match = _FENCE.match(line)
        if fence is not None:
            fence = None if line.startswith(fence) else fence
            code.append(line)
        elif match:
            fence = match.group(1)
        else:
            code.extend(_CODE.findall(line))
    return set(re.findall(r"\w+", "\n".join(code)))


def check_job_fields() -> List[str]:
    """``JobSpec`` fields no code span of ``docs/http_api.md`` names."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.job import JobSpec

    named = _code_words(REPO_ROOT / "docs" / "http_api.md")
    return [
        f"docs/http_api.md: JobSpec field '{name}' is not documented"
        for name in JobSpec.__dataclass_fields__
        if name not in named
    ]


def check_result_keys(
    api_doc: pathlib.Path = REPO_ROOT / "docs" / "http_api.md",
) -> List[str]:
    """Keys of ``run_query``'s fd, top_k and dd results on bv-6, and of a
    variational job's ``result`` and ``iterations`` records (nested ones
    too; a recursion's ``fixed`` is keyed by wire), that no code span of
    ``api_doc`` names."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core import CutQC
    from repro.core.job import JobSpec, run_query
    from repro.service.scheduler import JobScheduler
    from repro.service.store import ArtifactStore

    keys: set = set()
    pending = []
    pipeline = None
    for query in ("fd", "top_k", "dd"):
        spec = JobSpec(device_size=5, benchmark="bv", qubits=6, query=query)
        if pipeline is None:
            pipeline = CutQC(spec.build_circuit(), config=spec.run_config())
        pending.append(run_query(pipeline, spec))
    with tempfile.TemporaryDirectory() as root:
        scheduler = JobScheduler(ArtifactStore(root), workers=1)
        try:
            spec = JobSpec(device_size=5, benchmark="qaoa", qubits=6,
                           query="variational", iterations=1, degree=0)
            record = scheduler.wait(scheduler.submit(spec), timeout=300)
        finally:
            scheduler.shutdown()
    if record.state != "done":
        return [f"variational job for the key check ended {record.state}: "
                f"{record.error}"]
    pending += [record.result, record.iterations]
    while pending:
        value = pending.pop()
        if isinstance(value, list):
            pending.extend(value)
        elif isinstance(value, dict):
            keys.update(value)
            pending.extend(v for k, v in value.items() if k != "fixed")
    named = _code_words(api_doc)
    return [
        f"docs/http_api.md: result key '{key}' is not documented"
        for key in sorted(keys - named)
    ]


def check_pool_kinds() -> List[str]:
    """``repro_pool_tasks_total`` kinds in ``docs/metrics.md`` that differ
    from the kinds the pool records."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.postprocess.parallel import _TASK_FNS

    recorded = set(_TASK_FNS) - {"cache-stats"}
    documented: set = set()
    for line in (REPO_ROOT / "docs" / "metrics.md").read_text(
        encoding="utf-8"
    ).splitlines():
        match = re.match(r"\| `repro_pool_tasks_total` .*?`kind` \(([^)]*)\)", line)
        if match:
            documented = set(_CODE.findall(match.group(1)))
    if documented == recorded:
        return []
    return [
        f"docs/metrics.md: repro_pool_tasks_total kinds {sorted(documented)} "
        f"differ from the pool's {sorted(recorded)}"
    ]


def iter_runnable_snippets(
    path: pathlib.Path,
) -> Iterator[Tuple[int, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    index = 0
    while index < len(lines):
        match = _FENCE.match(lines[index])
        if match and "runnable" in match.group(2).split():
            fence, info = match.group(1), match.group(2).split()
            if info[0] not in ("python", "py"):
                raise ValueError(
                    f"{path}: runnable fence with non-python info "
                    f"string {info!r}"
                )
            body = []
            index += 1
            while index < len(lines) and not lines[index].startswith(fence):
                body.append(lines[index])
                index += 1
            yield index, "\n".join(body) + "\n"
        index += 1


def run_snippets(files: List[pathlib.Path]) -> List[str]:
    errors = []
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    for path in files:
        rel = path.relative_to(REPO_ROOT)
        for line, code in iter_runnable_snippets(path):
            with tempfile.NamedTemporaryFile(
                "w", suffix=".py", delete=False
            ) as handle:
                handle.write(code)
                snippet = handle.name
            try:
                proc = subprocess.run(
                    [sys.executable, snippet],
                    cwd=REPO_ROOT,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
            finally:
                os.unlink(snippet)
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout).strip().splitlines()
                detail = tail[-1] if tail else f"exit {proc.returncode}"
                errors.append(
                    f"{rel}: runnable snippet ending at line {line} "
                    f"failed: {detail}"
                )
            else:
                print(f"ok: {rel} snippet ending at line {line}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-run", action="store_true",
        help="check links, span names, cache labels, backend tags, job "
        "fields, result keys and pool task kinds; skip executing runnable "
        "snippets",
    )
    args = parser.parse_args(argv)

    files = markdown_files()
    print(f"checking {len(files)} markdown files")
    errors = (
        check_links(files) + check_span_names() + check_cache_labels()
        + check_backend_tags() + check_job_fields() + check_result_keys()
        + check_pool_kinds()
    )
    if not args.no_run:
        errors += run_snippets(files)

    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    if errors:
        print(f"\n{len(errors)} documentation problem(s)", file=sys.stderr)
        return 1
    print("docs ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
