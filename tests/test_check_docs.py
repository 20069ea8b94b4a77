"""tools/check_docs.py: the cache-label and result-key checks read the
documents they guard."""

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


def test_the_api_doc_names_every_result_key():
    assert check_docs.check_result_keys() == []


def test_a_result_key_missing_from_the_api_doc_is_flagged(tmp_path):
    doc = (ROOT / "docs" / "http_api.md").read_text(encoding="utf-8")
    assert "`max_bin_probability`" in doc
    copy = tmp_path / "http_api.md"
    copy.write_text(
        doc.replace("`max_bin_probability`", "the largest bin"),
        encoding="utf-8",
    )
    errors = check_docs.check_result_keys(copy)
    assert errors == [
        "docs/http_api.md: result key 'max_bin_probability' is not documented"
    ]


def test_a_variational_session_key_missing_from_the_api_doc_is_flagged(
    tmp_path,
):
    doc = (ROOT / "docs" / "http_api.md").read_text(encoding="utf-8")
    assert doc.count("`fusion_blocks_total`") == 1
    copy = tmp_path / "http_api.md"
    copy.write_text(
        doc.replace("`fusion_blocks_total`", "the block lookups"),
        encoding="utf-8",
    )
    errors = check_docs.check_result_keys(copy)
    assert errors == [
        "docs/http_api.md: result key 'fusion_blocks_total' is not documented"
    ]
