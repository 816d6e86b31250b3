"""Golden outputs: the bytes `motr run` and `motr front` write for a few
short configs, pinned by sha256.

Criterion 11 compares two runs of the same code, so a last-bit drift
between commits passes it; this test does not. A change that alters these
outputs on purpose re-records the digests (run
``MOTR_GOLDEN_PRINT=1 pytest -s tests/test_golden.py`` and copy the printed
table) and says why in CHANGES.md. The digests hold for the floating point of the platform
they were recorded on (x86-64, Python 3.11, numpy 2.4).
"""

import contextlib
import hashlib
import io
import os

import numpy as np

from motr.cli import main

ZEROS10 = ",".join(["0"] * 10)
ZEROS5 = ",".join(["0"] * 5)


def _write_header_csv(path):
    """600 rows: f0, a 0/1 label, f1, a continuous sensitive column (split
    at its median), f2; a header line."""
    rng = np.random.default_rng(1301)
    X = rng.standard_normal((600, 4))
    label = (X @ [1.0, -0.5, 0.8, 0.3] + 0.5 * rng.standard_normal(600) > 0).astype(float)
    table = np.column_stack([X[:, 0], label, X[:, 1:]])
    np.savetxt(path, table, delimiter=",", fmt="%.6g", header="f0,y,f1,s,f2", comments="")


def _write_libsvm(path):
    """500 rows, +1/-1 labels, five features with about a third of the
    entries left out; feature 3 is the 0/1 sensitive attribute."""
    rng = np.random.default_rng(1302)
    X = rng.standard_normal((500, 5))
    X[:, 2] = rng.random(500) < 0.4
    X[rng.random((500, 5)) < 0.3] = 0.0
    y = np.where(X @ [0.7, -1.0, 0.6, 0.4, 0.2] + 0.5 * rng.standard_normal(500) > 0, 1, -1)
    with open(path, "w") as fh:
        for label, row in zip(y.tolist(), X.tolist()):
            fh.write(" ".join([f"{label:+d}", *(f"{j + 1}:{v:.6g}"
                                                for j, v in enumerate(row) if v)]) + "\n")


# Configs whose dataset_path is the file the writer makes in their directory.
DATASETS = {"header_csv": _write_header_csv, "pm1_libsvm": _write_libsvm}

CONFIGS = {
    "test1_noisy": ("run", {"problem": "test1", "noise_sigma": "0.1", "k_max": "60",
                            "num_simulations": "2", "seed": "3"}),
    "smg_synthetic": ("run", {"problem": "synthetic", "algorithm": "smg", "x0": ZEROS10,
                              "hessian_mode": "subsampled", "smg_delta": "20",
                              "output_format": "json", "k_max": "30",
                              "num_simulations": "2", "seed": "5"}),
    "dmop_synthetic": ("run", {"problem": "synthetic", "algorithm": "dmop", "x0": ZEROS10,
                               "exact_metrics": "false", "k_max": "20",
                               "num_simulations": "2", "seed": "1"}),
    "test1_bounded_shared": ("run", {"problem": "test1", "noise_sigma": "0.5",
                                     "noise_bounded": "true", "noise_shared_gradient": "true",
                                     "noise_cap_f": "0.6", "noise_cap_g": "0.6",
                                     "k_max": "60", "num_simulations": "3", "seed": "4"}),
    "smop_synthetic": ("run", {"problem": "synthetic", "x0": ZEROS10,
                               "hessian_mode": "subsampled", "exact_metrics": "true",
                               "k_max": "40", "num_simulations": "2", "seed": "6"}),
    "front_test1": ("front", {"problem": "test1", "noise_sigma": "0.1", "front_rounds": "1",
                              "seed": "2"}),
    "header_csv": ("run", {"problem": "dataset", "has_header": "true", "label_column": "1",
                           "sensitive_column": "2", "label_convention": "zeroone",
                           "x0": ZEROS5, "k_max": "40", "num_simulations": "2",
                           "seed": "7"}),
    "pm1_libsvm": ("run", {"problem": "dataset", "dataset_format": "libsvm",
                           "sensitive_column": "2", "keep_sensitive": "false",
                           "hessian_mode": "subsampled", "output_format": "json",
                           "x0": ZEROS5, "k_max": "40", "num_simulations": "2",
                           "seed": "8"}),
    "test1_refine": ("run", {"problem": "test1", "noise_sigma": "0.1",
                             "hessian_mode": "subsampled", "refine_steps": "3",
                             "k_max": "60", "num_simulations": "2", "seed": "9"}),
    # n = 10: the order of the sums in the refine moves shows in the digests.
    "synthetic_refine": ("run", {"problem": "synthetic", "x0": ZEROS10,
                                 "hessian_mode": "subsampled", "refine_steps": "2",
                                 "k_max": "40", "num_simulations": "2", "seed": "10"}),
    "front_refine": ("front", {"problem": "test1", "noise_sigma": "0.1", "refine_steps": "3",
                               "front_rounds": "1", "seed": "11"}),
}

GOLDEN = {
    "test1_noisy/stdout":
        "9788f90adbf37fcfba8890c0754d540795d008c070922a761c35743c41da40a8",
    "test1_noisy/out":
        "51fc73be864ed25e51f26c6a9258f82aa8df75534f17f226782ae7ebeef1f708",
    "test1_noisy/out.summary.json":
        "7f3b1e93a54772658337f214af6a8fe6c56737a31f2d5ba8f1243ee304bd5944",
    "smg_synthetic/stdout":
        "c2a923065ced469bdc18860b8fd3000121ca9d64b2f4e7e72008c112b1512c98",
    "smg_synthetic/out":
        "05172e954354134a40f28399f0eaa9b82d4fb4d71c91244f0531901c70c68021",
    "smg_synthetic/out.summary.json":
        "a4f9c183d8bb2f31b82a41a2b3a66df1298eaffb16e380feeaac7b0ebbd384ca",
    "dmop_synthetic/stdout":
        "4c619a85a6ace5f940e9929bf92afa9d86ed3cabe00d6119d7081374c5529390",
    "dmop_synthetic/out":
        "174270cc503c3014ef0401d5e6f390fe3b59e0a3a278aa9fd40eab6025dbaa6f",
    "dmop_synthetic/out.summary.json":
        "69e00508622e2d38830c80a4144b8790fb76f2d7ed3ac28eea8b82c58496ebb9",
    "test1_bounded_shared/stdout":
        "2e13bc3662419b12d84da61908b54237c97a455634a5d1fdf4b8f39d20f8c87d",
    "test1_bounded_shared/out":
        "aaa9cec105f3c583d832b0a8d4e835e41c8d8051854a56f86f51ef58548da387",
    "test1_bounded_shared/out.summary.json":
        "5700e6bc78d4f0ac47a010c1b5f8dade1b3ec86f5f6bab57d2b24a2013fd8b9c",
    "smop_synthetic/stdout":
        "89214faf80df6946f9fa87aff0ba1f6175454b104f4022dbeaa9a038c9ea3243",
    "smop_synthetic/out":
        "000576fef24499f68b5eaee1f80408fe9b3825cf463263df905630f897eb2c3d",
    "smop_synthetic/out.summary.json":
        "25094781c86e6986a18237f3fae5e2e5af62c811c92cab9947266a5416817567",
    "front_test1/stdout":
        "1bbb4c543215875a964de829cf3d2c33900e84f49d851179c79e32d9bc2281df",
    "front_test1/out":
        "229a97a883934c59ce9abec38782144f106845e02a476bbc26e701562c51ea2c",
    "header_csv/stdout":
        "89214faf80df6946f9fa87aff0ba1f6175454b104f4022dbeaa9a038c9ea3243",
    "header_csv/out":
        "72652c8f7858cff1510091266979addc295e10482ded3a4f9c7eb6f2a46ed387",
    "header_csv/out.summary.json":
        "96148181a89b17277852a47a17eecb631745212d99d58be086fc67f449b89f2c",
    "pm1_libsvm/stdout":
        "89214faf80df6946f9fa87aff0ba1f6175454b104f4022dbeaa9a038c9ea3243",
    "pm1_libsvm/out":
        "5d64c100532c4cfe56d8c7690ac66bbbe3480510653defd7d0bce123f5556168",
    "pm1_libsvm/out.summary.json":
        "3eef37e19174f56deefc06e485274d3da6872ce22e12d5dee9defe92fcaa1cdb",
    "test1_refine/stdout":
        "9788f90adbf37fcfba8890c0754d540795d008c070922a761c35743c41da40a8",
    "test1_refine/out":
        "03b4d0d9cc544ffa6bb5bd85b8b0e2bddc7d9895d21e79915300d71c04665568",
    "test1_refine/out.summary.json":
        "e37f7813edb491d423a610206325c8b582222af2fc84f6674a9010f72465e1f8",
    "synthetic_refine/stdout":
        "89214faf80df6946f9fa87aff0ba1f6175454b104f4022dbeaa9a038c9ea3243",
    "synthetic_refine/out":
        "4e9c8a8f706a661f51d37c058789196e24d0b7293e5b7cd7782e59c0ce8cf5f1",
    "synthetic_refine/out.summary.json":
        "e86c390108fb89e26bb634d85a37ae9ba4072f60ae4d1f51889e8fc7614f5aed",
    "front_refine/stdout":
        "1811eef05c23417229b390953719e94a4b89748d0ce849634ad4beeeb3f0a7a7",
    "front_refine/out":
        "73893c14d58a8be5554125dbc3c0479fa4472c4ca17cb43440337f221723c65c",
}


def _digests(directory) -> dict[str, str]:
    found = {}
    for name, (command, keys) in CONFIGS.items():
        d = directory / name
        d.mkdir()
        keys = dict(keys, output_path=str(d / "out"))
        if name in DATASETS:
            DATASETS[name](d / "data")
            keys["dataset_path"] = str(d / "data")
        cfg = d / "cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, str(cfg)]) == 0, name
        found[f"{name}/stdout"] = out.getvalue().replace(str(d), "")
        for path in sorted(d.glob("out*")):
            found[f"{name}/{path.name}"] = path.read_text()
    return {key: hashlib.sha256(text.encode()).hexdigest() for key, text in found.items()}


def test_outputs_match_golden_digests(tmp_path):
    found = _digests(tmp_path)
    if os.environ.get("MOTR_GOLDEN_PRINT"):
        print("".join(f'    "{k}":\n        "{v}",\n' for k, v in found.items()))
    differ = sorted(k for k in GOLDEN.keys() | found.keys() if GOLDEN.get(k) != found.get(k))
    assert not differ, f"outputs differ from the golden digests: {differ}"
