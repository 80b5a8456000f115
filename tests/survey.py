"""The group keys of the benchmark's `survey` workload, read from
`benchmark/workloads.py`, so that tests that sweep the survey cover the
same groups as the benchmark; the benchmark's expected rows and verdict
rule; and `survey_rows.csv`, the rows this code gives for those groups."""

import importlib.util
import pathlib

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_module = _workloads()
SURVEY = list(_module.SURVEY)
BENCHMARK_ROWS = _module.load_expected()
row_problems = _module.row_problems
SURVEY_ROWS = _module.load_expected(pathlib.Path(__file__).resolve().parent / "survey_rows.csv")
