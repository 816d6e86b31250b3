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

from motr.cli import main

ZEROS10 = ",".join(["0"] * 10)

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
    "front_test1": ("front", {"problem": "test1", "noise_sigma": "0.1", "front_rounds": "1",
                              "seed": "2"}),
}

GOLDEN = {
    "test1_noisy/stdout":
        "9788f90adbf37fcfba8890c0754d540795d008c070922a761c35743c41da40a8",
    "test1_noisy/out":
        "6181ccb1ad89efbcb02bd6ee2f9027ab9964da797c2571c86b04552466a594bc",
    "test1_noisy/out.summary.json":
        "eba08fb42d15f318ee5f61bfee5c01eab843bdfdb71ec23260c202b6f0286d8e",
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
    "front_test1/stdout":
        "1bbb4c543215875a964de829cf3d2c33900e84f49d851179c79e32d9bc2281df",
    "front_test1/out":
        "2ffa44f77a544ae259db32c71d1613af140b46e3f8daec5e1bdb3a583baede9d",
}


def _digests(directory) -> dict[str, str]:
    found = {}
    for name, (command, keys) in CONFIGS.items():
        d = directory / name
        d.mkdir()
        keys = dict(keys, output_path=str(d / "out"))
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
