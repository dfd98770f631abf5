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
STORED = "tests/test_filtering.py::TestStoredStates"
ENGINES = "tests/test_filtering.py::TestEngineConsistency"
ENSEMBLE = "tests/test_filtering.py::TestEnsemble"
MASTER = "src/nmqubit/master.py"
STEPPERS = "tests/test_master.py::TestIntegrate::test_steppers_match_plain_rk4"
TABLE = "tests/test_master.py::TestIntegrate::test_tabulated_step_is_the_applied_step"
BASELINE = "tests/test_master.py::TestMarkovianBaseline"
GRID = "tests/test_master.py::TestGridSteps"
ABORT = "tests/test_master.py::TestIntegrate::test_positivity_abort"
SLH = "src/nmqubit/slh.py"

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
    ("ladder entries n for sqrt(n)", SLH,
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
    ("a mode's truncation off the config's accepted", CONFIG,
     'raise ConfigError(f"ancilla.{k} truncation differs from config truncation")', "pass",
     ["tests/test_config_cli.py::TestParsing::test_mode_truncation_off_the_config_named"]),
    ("workers 0 accepted", CONFIG,
     "if self.workers < 1:", "if self.workers < 0:",
     ["tests/test_config_cli.py::TestParsing::test_zero_workers_named",
      "tests/test_config_cli.py::TestMainEntry::test_zero_workers_flag_rejected"]),
    ("an override flag sets another field", "src/nmqubit/cli.py",
     '"--workers": ("workers", int)', '"--workers": ("n_traj", int)',
     ["tests/test_config_cli.py::TestMainEntry::test_override_flag_sets_its_own_field"]),
    ("jump weights not scaled by dt", FILTERING,
     "w_dt = dt * jumps.w", "w_dt = jumps.w",
     [f"{SME_STEP}::test_eight_steps_batch_of_three"]),
    ("E not scaled by dt in the Kraus basis", FILTERING,
     "ident + dt * gen.e", "ident + gen.e",
     [SME_STEP]),
    ("the 1/2 dropped from the (dY^2 - dt) term", FILTERING,
     "0.5 * (l @ l)", "l @ l",
     [f"{SME_STEP}::test_fused_step_batch_of_three"]),
    ("normalization skipped", FILTERING,
     "                rho_re *= inv\n", "",
     [f"{SME_STEP}::test_fused_step_batch_of_three"]),
    ("lower NORM_BOUND check dropped", FILTERING,
     "tr.min() >= low and ", "",
     [f"{SME_STEP}::test_trace_below_lower_bound_aborts_in_a_batch"]),
    ("lower NORM_BOUND check dropped on one path", FILTERING,
     "if not low <= t <= NORM_BOUND:", "if not t <= NORM_BOUND:",
     [f"{SME_STEP}::test_trace_below_lower_bound_aborts"]),
    ("one path's dY formed without dt", FILTERING,
     "m[i] * dt + given[0, i]", "m[i] + given[0, i]",
     [f"{ENGINES}::test_path_alone_and_at_row_1_of_three"]),
    ("only the first jump row summed", FILTERING,
     "np.add.reduce(gathered, axis=1, out=jump_sum)", "np.copyto(jump_sum, gathered[:, 0])",
     [f"{SME_STEP}::test_one_step_is_the_dense_kraus_map"]),
    ("one path's normalization skipped", FILTERING,
     "                rho_re *= 1.0 / t\n", "",
     [f"{ENGINES}::test_path_alone_and_at_row_1_of_three"]),
    ("a batch of two stepped as one path", FILTERING,
     "one_path = b == 1", "one_path = b <= 2",
     [f"{ENGINES}::test_ensemble_batches_of_two_and_one"]),
    ("the last partial block of an iteration skipped", FILTERING,
     "for lo in range(0, len(self), self._block):\n            states =",
     "for lo in range(0, len(self) - len(self) % self._block, self._block):\n            states =",
     [f"{STORED}::test_items_iteration_and_array_agree"]),
    ("a slice of the stored states ignored", FILTERING,
     "StoredStates(self.layout, self.coords[i])", "StoredStates(self.layout, self.coords)",
     [f"{STORED}::test_items_iteration_and_array_agree"]),
    ("the blocks of an iteration left writable", FILTERING,
     "            states.setflags(write=False)\n", "",
     [f"{STORED}::test_items_iteration_and_array_agree"]),
    ("the state stored before its normalization", FILTERING,
     "            np.add.reduce(diag, axis=1, out=trace)\n"
     "            if one_path:\n"
     "                t = tr[0]\n"
     "                if not low <= t <= NORM_BOUND:\n"
     "                    raise _abort(tr, lo + i, dt, t0, seeds)\n"
     "                rho_re *= 1.0 / t\n"
     "            else:\n"
     "                if not (tr.min() >= low and tr.max() <= NORM_BOUND):\n"
     "                    raise _abort(tr, lo + i, dt, t0, seeds)\n"
     "                np.divide(1.0, tr_col, out=inv)\n"
     "                rho_re *= inv\n"
     "            np.matmul(rho_row, w, out=point[i + 1])\n"
     "            if store_states:\n"
     "                np.take(rho_reals, coords, axis=1, out=states[:, lo + i + 1], mode=\"clip\")\n",
     "            if store_states:\n"
     "                np.take(rho_reals, coords, axis=1, out=states[:, lo + i + 1], mode=\"clip\")\n"
     "            np.add.reduce(diag, axis=1, out=trace)\n"
     "            if one_path:\n"
     "                t = tr[0]\n"
     "                if not low <= t <= NORM_BOUND:\n"
     "                    raise _abort(tr, lo + i, dt, t0, seeds)\n"
     "                rho_re *= 1.0 / t\n"
     "            else:\n"
     "                if not (tr.min() >= low and tr.max() <= NORM_BOUND):\n"
     "                    raise _abort(tr, lo + i, dt, t0, seeds)\n"
     "                np.divide(1.0, tr_col, out=inv)\n"
     "                rho_re *= inv\n"
     "            np.matmul(rho_row, w, out=point[i + 1])\n",
     [f"{SME_STEP}::test_fused_step_batch_of_three"]),
    ("the coordinates written one step early", FILTERING,
     "out=states[:, lo + i + 1],", "out=states[:, lo + i],",
     ["tests/test_filtering.py::TestConditionalQubit::test_is_the_filter_readout"]),
    ("a replay's initial state layout unchecked", FILTERING,
     "    _check_layout(rho0, spec.layout)\n    t, dt = grid_steps(t_grid)\n    rec =",
     "    t, dt = grid_steps(t_grid)\n    rec =",
     [f"{SME_STEP}::test_initial_state_on_another_layout_rejected"]),
    ("record formed as m + dW", FILTERING,
     "record=signal[0] * dt + dw", "record=signal[0] + dw",
     ["tests/test_filtering.py::TestTrajectory::test_bookkeeping_identity_exact"]),
    ("the sign of one entry of R(A) flipped", "src/nmqubit/operators.py",
     "np.stack([-im, re], -1)", "np.stack([im, re], -1)",
     ["tests/test_operators.py::TestRealRight", f"{SME_STEP}::test_one_step_is_the_dense_kraus_map",
      STEPPERS]),
    ("Y^dag formed without the conjugate", FILTERING,
     "np.conjugate(y_t, out=ydag)", "np.copyto(ydag, y_t)",
     [f"{SME_STEP}::test_one_step_is_the_dense_kraus_map"]),
    ("the entry Hermitian part dropped", FILTERING,
     "np.add(rho0, rho0.conj().swapaxes(1, 2), out=rho)", "np.add(rho0, rho0, out=rho)",
     [f"{STORED}::test_stored_states_are_the_propagated_states_hermitian_parts"]),
    ("ring row 0 not carried to the next block", FILTERING,
     "readouts[:, 0] = readouts[:, block]", "pass",
     [f"{ENGINES}::test_worker_moments_are_the_sums_of_full_columns"]),
    ("a block boundary row summed twice", FILTERING,
     "stream.add(lo + 1, readouts[:, 1:k + 1, :3])", "stream.add(lo, readouts[:, :k + 1, :3])",
     [f"{ENGINES}::test_worker_moments_are_the_sums_of_full_columns"]),
    ("a streamed abort's step counted from its block", FILTERING,
     "raise _abort(tr, lo + i, dt, t0, seeds)\n                np.divide",
     "raise _abort(tr, i, dt, t0, seeds)\n                np.divide",
     [f"{ENGINES}::test_path_kicked_mid_block_names_its_seed"]),
    ("one path's abort step counted from its block", FILTERING,
     "raise _abort(tr, lo + i, dt, t0, seeds)\n                rho_re *= 1.0 / t",
     "raise _abort(tr, i, dt, t0, seeds)\n                rho_re *= 1.0 / t",
     [f"{ENGINES}::test_path_kicked_mid_block_names_its_seed"]),
    ("squares summed unsquared", FILTERING,
     "np.square(dev, out=dev).sum(", "dev.sum(",
     [f"{ENGINES}::test_worker_moments_are_the_sums_of_full_columns"]),
    ("batches merged without the term of their means' gap", FILTERING,
     "                sq += delta * delta * (merged * len(batch) / (merged + len(batch)))\n", "",
     ["tests/test_filtering.py::TestEnsemble::test_stderr_is_the_two_pass_standard_error"]),
    ("an ensemble abort keeps only the first failing batch's seeds", FILTERING,
     "tuple(s for abort in aborts for s in abort.seeds)", "tuple(aborts[0].seeds)",
     [f"{ENSEMBLE}::test_two_failing_batches_raise_one_abort"]),
    ("sqrt(dt) dropped from a per-block draw", FILTERING,
     "        out *= self.sqrt_dt\n", "",
     [f"{ENGINES}::test_worker_moments_are_the_sums_of_full_columns"]),
    ("an ensemble worker counts times from 0", FILTERING,
     "stream=moments, seeds=seeds,\n                t0=t0)",
     "stream=moments, seeds=seeds,\n                t0=0.0)",
     [f"{ENSEMBLE}::test_abort_on_a_shifted_grid_names_grid_time"]),
    ("step count truncated, not rounded", "src/nmqubit/experiments.py",
     "n = int(round(steps))", "n = int(steps)",
     ["tests/test_config_cli.py::TestMainEntry::test_time_grid_rounds_step_count"]),
    ("baseline channel kappa for sqrt(kappa)", MASTER,
     "* math.sqrt(p.kappa) for p in ancillas", "* p.kappa for p in ancillas",
     [f"{BASELINE}::test_sigma_x_rate_hand_value", f"{BASELINE}::test_bank_reaches_markov_limit"]),
    ("the tabulated map built untransposed", MASTER,
     "]).T.copy()", "]).copy()",
     [TABLE]),
    ("each column of the tabulated map with its trace first", MASTER,
     "np.append(*applied(e))", "np.append(*applied(e)[::-1])",
     [TABLE]),
    ("the tabulated step's trace read from the wrong entry", MASTER,
     "return u[:-1], u[-1]", "return u[:-1], u[0]",
     [TABLE]),
    ("applied RK4 step's Horner coefficient h/3 for h/2", MASTER,
     "h / 3.0", "h / 2.0",
     [STEPPERS]),
    ("the applied step's gather buffer reallocated", MASTER,
     'np.take(src_flat, jumps.idx, out=gathered, mode="clip")',
     'np.copyto(gathered, np.take(src_flat, jumps.idx, mode="clip"))',
     ["tests/test_master.py::TestJumpGather::test_applied_step_gathers_into_its_own_buffer"]),
    ("stage operator built from E, not E^dag", MASTER,
     "real_right(coefs * gen.e.conj().T)", "real_right(coefs * gen.e)",
     [STEPPERS]),
    ("jump weights without the conjugate", MASTER,
     "np.outer(v, v.conj())", "np.outer(v, v)",
     ["tests/test_master.py::TestJumpGather"]),
    ("grid uniformity unchecked", MASTER,
     "if not dev.max() <= GRID_STEP_TOL:", "if False:",
     [f"{GRID}::test_entry_points_reject_non_uniform_grid"]),
    ("positivity abort threshold with the wrong sign", MASTER,
     "w < -POSITIVITY_ABORT", "w < POSITIVITY_ABORT",
     ["tests/test_master.py::TestIntegrate::test_conservation_short_run"]),
    ("direct coupling folded into H with the wrong sign", MASTER,
     "h + (d - d.conj().T) * 1j", "h - (d - d.conj().T) * 1j",
     ["tests/test_master.py::TestGeneratorForms::test_equivalence_on_random_states"]),
    ("no early block end after a state that cannot pass", MASTER,
     " or diverged:", ":",
     [ABORT]),
    ("no wait after a block that ended on the v.v certificate", MASTER,
     "                if diverged:\n                    checked.result()\n", "",
     [ABORT]),
    ("the last block's check is never collected", MASTER,
     "        checked.result()\n    return result", "    return result",
     ["tests/test_master.py::TestIntegrate::test_abort_in_last_block"]),
    ("the state stack allocated whatever store_states says", MASTER,
     "(n if store_states else block, d, d)", "(n, d, d)",
     ["tests/test_master.py::TestIntegrate::test_streamed_run_holds_no_state_stack"]),
    ("a block written before the previous block's check is collected", MASTER,
     "                if checked is not None:\n                    checked.result()\n", "",
     ["tests/test_master.py::TestIntegrate::test_streamed_equals_stored"]),
    ("a block's Bloch rows written at the wrong offset", MASTER,
     "result.bloch[lo:hi] =", "result.bloch[:hi - lo] =",
     ["tests/test_master.py::TestIntegrate::test_streamed_equals_stored"]),
    ("imaginary part not negated below the diagonal", MASTER,
     "np.sign(j - i)", "np.abs(np.sign(j - i))",
     [STEPPERS]),
    ("shared field channel without sqrt(gamma)", SLH,
     "couplings = [sum(couplings[1:], couplings[0])]", "couplings = [sum(ladders[1:], ladders[0])]",
     ["tests/test_bank_oracle.py::test_single_mode_truncation_error"]),
    ("direct coupling kappa for sqrt(kappa)", SLH,
     "* math.sqrt(p.kappa)", "* p.kappa",
     ["tests/test_filtering.py::TestQndOracle::test_coupled_bank_replay_matches_closed_form"]),
    ("the step's trace skips the first diagonal entry", MASTER,
     "return u, u[:d].sum()", "return u, u[1:d].sum()",
     ["tests/test_master.py::TestIntegrate::test_zero_generator_constant"]),
    ("y Bloch weight with the wrong sign", "src/nmqubit/operators.py",
     "w[r, top, 1, 1] = -2.0", "w[r, top, 1, 1] = 2.0",
     ["tests/test_master.py::TestReduce::test_bloch_reductions_match_reshape_trace"]),
    ("qubit factor unchecked", "src/nmqubit/operators.py",
     "if dims[:1] != (2,):", "if False:",
     ["tests/test_operators.py::test_one_qubit_factor_rule_at_every_entry_point"]),
]
