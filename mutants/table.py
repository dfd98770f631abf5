"""Mutants the test suite must kill: (name, file, old text, new text, tests).

Each old text occurs exactly once in its file; the tests are pytest
arguments run from the root of a copy of the repository.  A surviving
mutant is fixed by a test, and a mutant leaves the table only when it is
shown equivalent to the code it replaces.
"""

SPECTRA = "src/nmqubit/spectra.py"
CONFIG = "src/nmqubit/config.py"
FITTING = "tests/test_spectra.py::TestFitting"
WRONG_KIND = "tests/test_config_cli.py::TestMainEntry::test_json_value_of_wrong_kind_names_field"
FILTERING = "src/nmqubit/filtering.py"
SME_STEP = "tests/test_filtering.py::TestSmeStep"
MASTER = "src/nmqubit/master.py"
STEPPERS = "tests/test_master.py::TestIntegrate::test_steppers_match_plain_rk4"
BASELINE = "tests/test_master.py::TestMarkovianBaseline"

MUTANTS = [
    ("peak width from the left crossing only", SPECTRA,
     "width = 2.0 * (center - left)", "width = center - left",
     [f"{FITTING}::test_peak_pick_one_sided_crossing"]),
    ("peak width from the right crossing only", SPECTRA,
     "width = 2.0 * (right - center)", "width = right - center",
     [f"{FITTING}::test_peak_pick_one_sided_crossing"]),
    ("no zero-weight start for the added line", SPECTRA,
     "for scale in (1.0, 0.5, 0.1, 0.0)]", "for scale in (1.0, 0.5, 0.1)]",
     [f"{FITTING}::test_flat_spectrum_nested_residuals_non_increasing"]),
    ("no best-so-far return of the start", SPECTRA,
     "if init_cost < best_cost:", "if False:",
     [f"{FITTING}::test_exact_start_is_returned"]),
    ("sqrt-weight Jacobian column halved", SPECTRA,
     "jac[:, k, 2] = 2.0 * v * s", "jac[:, k, 2] = v * s",
     [FITTING]),
    ("weight unpacked as |v| for v**2", SPECTRA,
     "float(v ** 2)", "float(abs(v))",
     [FITTING]),
    ("a step that underflows a linewidth to 0 is accepted", SPECTRA,
     "and np.all((widths > 0) & (widths < np.inf))", "",
     [f"{FITTING}::test_unstructured_spectrum_fits_stay_valid"]),
    ("fit evaluations warn on overflow", SPECTRA,
     '@np.errstate(all="ignore")', "",
     [f"{FITTING}::test_unstructured_spectrum_fits_stay_valid"]),
    ("ladder entries n for sqrt(n)", "src/nmqubit/slh.py",
     "a[src - math.prod(dims[k + 1:]), src] = np.sqrt(n[src])",
     "a[src - math.prod(dims[k + 1:]), src] = n[src]",
     ["tests/test_operators.py"]),
    ("a JSON number at a string key read as its text", CONFIG,
     "to_type is str and not isinstance(value, str)) or (", "False) or (",
     [WRONG_KIND, "tests/test_config_properties.py"]),
    ("a JSON list at a scalar key joined with commas", CONFIG,
     "        else:\n            yield name, value",
     "        elif isinstance(value, list):\n"
     "            yield name, \", \".join(str(v) for v in value)\n"
     "        else:\n            yield name, value",
     [WRONG_KIND, "tests/test_config_properties.py"]),
    ("init.bloch entries read by float(), so true is 1.0", CONFIG,
     "(_coerce(key, p, float) for p in parts)", "(float(p) for p in parts)",
     [WRONG_KIND]),
    ("an ancilla error names the attribute, not the key", CONFIG,
     'raise ConfigError(f"{keys.get(attr, attr)} {rest}")',
     'raise ConfigError(f"ancilla.{k}.{exc}")',
     ["tests/test_config_cli.py::TestMainEntry::test_ancilla_error_names_config_key",
      "tests/test_config_properties.py"]),
    ("jump weights not scaled by dt", FILTERING,
     "w_dt = scaled[dt] = dt * jumps.w", "w_dt = scaled[dt] = jumps.w",
     [f"{SME_STEP}::test_alternating_step_sizes_batch_of_three"]),
    ("dt column not refreshed when the step size changes", FILTERING,
     "dt_col.fill(dt)", "dt_col.fill(dts[0])",
     [f"{SME_STEP}::test_alternating_step_sizes_batch_of_three"]),
    ("the 1/2 dropped from the (dY^2 - dt) term", FILTERING,
     "0.5 * (l @ l)", "l @ l",
     [f"{SME_STEP}::test_fused_step_batch_of_three"]),
    ("normalization skipped", FILTERING,
     "        rho_re *= inv\n", "",
     [f"{SME_STEP}::test_fused_step_batch_of_three"]),
    ("lower NORM_BOUND check dropped", FILTERING,
     "tr.min() >= low and ", "",
     [f"{SME_STEP}::test_trace_below_lower_bound_aborts"]),
    ("record formed as m + dW", FILTERING,
     "record=signal[0] * dts + dw", "record=signal[0] + dw",
     ["tests/test_filtering.py::TestTrajectory::test_bookkeeping_identity_exact"]),
    ("step count truncated, not rounded", "src/nmqubit/experiments.py",
     "n = int(round(steps))", "n = int(steps)",
     ["tests/test_config_cli.py::TestMainEntry::test_time_grid_rounds_step_count"]),
    ("baseline channel kappa for sqrt(kappa)", MASTER,
     "* math.sqrt(p.kappa) for p in ancillas", "* p.kappa for p in ancillas",
     [f"{BASELINE}::test_sigma_x_rate_hand_value", f"{BASELINE}::test_bank_reaches_markov_limit"]),
    ("tabulated RK4 step without its h^4 term", MASTER,
     "np.array([h, h * h, h**3, h**4])", "np.array([h, h * h, h**3, 0.0])",
     [STEPPERS]),
    ("applied RK4 step weights k3 by 1, not 2", MASTER,
     "2.0 * k3", "k3",
     [STEPPERS]),
    ("jump weights without the conjugate", MASTER,
     "np.outer(v, v.conj())", "np.outer(v, v)",
     ["tests/test_master.py::TestJumpGather"]),
    ("the table's trace row skips the first diagonal entry", MASTER,
     "ident[n2, :d] = 1.0", "ident[n2, 1:d] = 1.0",
     ["tests/test_master.py::TestIntegrate::test_zero_generator_constant"]),
    ("y Bloch weight with the wrong sign", "src/nmqubit/operators.py",
     "w[r, top, 1, 1] = -2.0", "w[r, top, 1, 1] = 2.0",
     ["tests/test_master.py::TestReduce::test_bloch_reductions_match_reshape_trace"]),
]
