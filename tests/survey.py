"""The group keys of the benchmark's `survey` workload, read from
`benchmark/workloads.py`, so that tests that sweep the survey cover the
same groups as the benchmark."""

import importlib.util
import pathlib

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"


def _survey_keys() -> list[str]:
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.SURVEY)


SURVEY = _survey_keys()
