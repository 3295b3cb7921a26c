import importlib.util
import json
from pathlib import Path

from streamista.harness import ExperimentConfig, run_lca_suite

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def test_lca_case_prints_the_suite_instances(tmp_path):
    # the suite has no subcommand, so its case is a Python call on the tree
    config, extra, argv = compare_outputs.cases(3, compare_outputs.SIZES["quick"])["lca-suite"]
    fields = json.loads(argv[-1])
    assert (fields["trials"], fields["n_samples"], fields["seed"]) == (20, 20, 3)
    # fewer instances, so the test stays quick; the script reads them from argv
    fields["trials"] = 3
    found = compare_outputs.run_case(
        ROOT, tmp_path / "work", config, extra, argv[:-1] + [json.dumps(fields)]
    )
    cfg = ExperimentConfig(**fields)
    expected = repr(run_lca_suite(cfg, slack_factor=5.0, substeps=10).instances)
    assert found["exit"] == 0
    assert found["stdout"].decode() == expected + "\n"
    assert found["files"] == {}
