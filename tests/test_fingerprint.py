"""Every solver gives the results pinned in ``data/fingerprint.json``.

On the host the file was written on (same numpy, BLAS and CPU features)
every field must match bit for bit.  Elsewhere a BLAS kernel may round
differently, so iterations, termination, raised text, matvecs and the CLI's
exit codes must match, and ``f_final`` to 1e-10 relative.  The commit the
file was written at is not compared.  ``fingerprint.py`` says what the grid
is and how to regenerate the file.
"""

import json
import math

import fingerprint

EXACT_ON_ANY_HOST = {"iterations", "terminated_by", "raised", "matvecs", "exit_code"}
F_FINAL_RELATIVE = 1e-10


def _f_final_close(recorded, found):
    if recorded is None or found is None:
        return recorded == found
    a, b = float.fromhex(recorded), float.fromhex(found)
    return math.isclose(a, b, rel_tol=F_FINAL_RELATIVE, abs_tol=0.0)


def differences(recorded, found):
    """One line per field of a cell or CLI grid that differs, led by one per
    environment field that differs."""
    env_lines = [f"environment {key}: recorded {recorded['environment'].get(key)!r}, "
                 f"found {found['environment'].get(key)!r}"
                 for key in sorted(recorded["environment"].keys() | found["environment"].keys())
                 if recorded["environment"].get(key) != found["environment"].get(key)]
    same_host = not env_lines
    lines = []
    for part in ("cells", "cli"):
        for key in sorted(recorded[part].keys() | found[part].keys()):
            was, now = recorded[part].get(key, {}), found[part].get(key, {})
            for field in sorted(was.keys() | now.keys()):
                a, b = was.get(field), now.get(field)
                if same_host or field in EXACT_ON_ANY_HOST:
                    same = a == b
                elif field == "f_final":
                    same = _f_final_close(a, b)
                else:
                    continue
                if not same:
                    lines.append(f"{part} {key!r} {field}: recorded {a!r}, found {b!r}")
    return env_lines + lines if lines else []


def test_results_match_the_fingerprint():
    recorded = json.loads(fingerprint.PATH.read_text())
    lines = differences(recorded, fingerprint.fingerprint())
    assert not lines, "results differ from the fingerprint:\n" + "\n".join(lines)


def test_fingerprint_compares_by_host():
    recorded = json.loads(fingerprint.PATH.read_text())
    key = "me diag n=64 seed=1 untraced"
    f_final = float.fromhex(recorded["cells"][key]["f_final"])
    found = json.loads(json.dumps(recorded))
    found["cells"][key]["f_final"] = math.nextafter(f_final, 0.0).hex()
    assert differences(recorded, found) == [
        f"cells {key!r} f_final: recorded {recorded['cells'][key]['f_final']!r}, "
        f"found {found['cells'][key]['f_final']!r}"]
    # On another host one ulp of f_final is rounding, but a step is not.
    found["environment"]["numpy"] = "0.0"
    assert differences(recorded, found) == []
    found["cells"][key]["iterations"] += 1
    assert differences(recorded, found) == [
        f"environment numpy: recorded {recorded['environment']['numpy']!r}, found '0.0'",
        f"cells {key!r} iterations: recorded {recorded['cells'][key]['iterations']}, "
        f"found {found['cells'][key]['iterations']}"]
