"""tools/check_docs.py: the cache-label check reads the documented row."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)

METRICS = (ROOT / "docs" / "metrics.md").read_text(encoding="utf-8")


def _row(text):
    (row,) = [
        line for line in text.splitlines()
        if line.startswith("| `repro_cache_size` ")
    ]
    return row


def test_the_repository_docs_pass():
    assert check_docs.check_cache_labels() == []


def test_a_label_missing_from_the_row_is_flagged(tmp_path):
    row = _row(METRICS)
    assert "/`collapse`" in row
    doc = METRICS.replace(row, row.replace("/`collapse`", ""))
    # ``collapse`` still appears backticked elsewhere in the copy.
    assert "`collapse`" in doc
    copy = tmp_path / "metrics.md"
    copy.write_text(doc, encoding="utf-8")
    errors = check_docs.check_cache_labels(copy)
    assert errors and all("'collapse'" in error for error in errors)
