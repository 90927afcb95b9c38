"""Public API surface: every module's __all__ and every public signature.

The names and the ``str(inspect.signature(...))`` texts below pin the public
API.  A change that keeps it leaves them unchanged; a change to it on purpose
updates this file and says so.  Signatures are keyed by the defining module
and qualified name: functions, dataclasses, and the public methods of the
package's public classes.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys

import pytest

ALL = {
    'l2disc': (
        '__version__', 'BudgetExhaustedError', 'MeasureId', 'NoGeometricOracleError',
        'NonDifferentiableMeasureError', 'NumericGuardError', 'PointSet',
        'SquaredDiscrepancy', 'ValidationError', 'WeightVector', 'nearest_vertex',
        'reflect', 'KernelSpec', 'expectation_constants', 'kernel_spec',
        'asd_by_reflection', 'gradient', 'greedy_contribution', 'squared_discrepancy',
        'squared_value', 'value_and_gradient', 'OracleEstimate', 'box_membership',
        'even_subset_volume', 'local_discrepancy', 'mc_expected_iid',
        'mc_squared_discrepancy', 'DirectionNumbers', 'fibonacci_lattice', 'grid',
        'iid_uniform', 'replicated_point', 'sobol', 'PathologyRow', 'anchor_point',
        'check_asd_superiority', 'expected_iid_squared', 'iid_threshold',
        'pathology_row', 'pathology_table', 'reference_row', 'single_point_value',
        'GreedyConfig', 'OptimizerConfig', 'Trace', 'cross_evaluate', 'greedy_extend',
        'optimize',
    ),
    'l2disc.core': (
        'EPS_NUM', 'MeasureId', 'PointSet', 'WeightVector', 'SquaredDiscrepancy',
        'ValidationError', 'NumericGuardError', 'NonDifferentiableMeasureError',
        'NoGeometricOracleError', 'BudgetExhaustedError', 'reflect', 'nearest_vertex',
    ),
    'l2disc.kernels': (
        'KernelSpec', 'kernel_spec', 'expectation_constants',
    ),
    'l2disc.evaluator': (
        'squared_value', 'squared_discrepancy', 'asd_by_reflection', 'gradient',
        'value_and_gradient', 'greedy_contribution',
    ),
    'l2disc.oracle': (
        'OracleEstimate', 'box_membership', 'local_discrepancy',
        'mc_squared_discrepancy', 'mc_expected_iid', 'even_subset_volume',
    ),
    'l2disc.generators': (
        'DirectionNumbers', 'iid_uniform', 'sobol', 'replicated_point',
        'fibonacci_lattice', 'grid',
    ),
    'l2disc.pathology': (
        'PathologyRow', 'ReferenceRow', 'reference_row', 'anchor_description',
        'anchor_point', 'single_point_value', 'expected_iid_squared', 'iid_threshold',
        'check_asd_superiority', 'pathology_table',
    ),
    'l2disc.construct': (
        'GreedyConfig', 'OptimizerConfig', 'Trace', 'greedy_extend', 'optimize',
        'cross_evaluate',
    ),
    'l2disc.reference': (
        'TABLE3_NS', 'TABLE3_ORDER', 'TABLE3_OPT', 'TABLE3_SOBOL', 'TABLE4_NS',
        'TABLE4_ORDER', 'TABLE4_OPT', 'SOBOL_STAR_16_D2',
    ),
    'l2disc.cli': (
        'main', 'RunRecord', 'read_points', 'write_points',
    ),
}

SIGNATURES = {
    'l2disc.cli.RunRecord':
        "(command: 'str', measure: 'Optional[str]', n: 'Optional[int]', d: 'Optional[int]', gamma: 'Optional[tuple]', squared: 'Optional[float]', root: 'Optional[float]', seeds: 'tuple', samples: 'Optional[int]', evaluations: 'Optional[int]', elapsed_ms: 'None', version: 'str', extra: 'Optional[dict]' = None) -> None",
    'l2disc.cli.RunRecord.to_json':
        "(self) -> 'str'",
    'l2disc.cli.main':
        "(argv=None) -> 'int'",
    'l2disc.cli.read_points':
        "(path: 'str') -> 'PointSet'",
    'l2disc.cli.write_points':
        "(path: 'str', points: 'PointSet') -> 'None'",
    'l2disc.construct.GreedyConfig':
        "(batch: 'int' = 1, grid_k: 'int' = 65, refine_initial_step: 'Optional[float]' = None, refine_shrink: 'float' = 0.5, refine_min_step: 'float' = 1e-06, max_refine_evaluations: 'int' = 20000) -> None",
    'l2disc.construct.OptimizerConfig':
        "(restarts: 'int' = 8, iterations: 'int' = 20000, seed: 'int' = 0, tolerance: 'float' = 1e-14, patience: 'int' = 2000) -> None",
    'l2disc.construct.Trace':
        "(values: 'tuple', best_values: 'tuple', final: 'PointSet', final_value: 'float', winner_restart: 'int', evaluations: 'int') -> None",
    'l2disc.construct.cross_evaluate':
        "(sets: 'Mapping', measures: 'Sequence') -> 'np.ndarray'",
    'l2disc.construct.greedy_extend':
        "(spec: 'KernelSpec', points: 'PointSet', steps: 'int', cfg: 'Optional[GreedyConfig]' = None) -> 'tuple[PointSet, Trace]'",
    'l2disc.construct.optimize':
        "(spec: 'KernelSpec', init: 'PointSet', cfg: 'Optional[OptimizerConfig]' = None) -> 'tuple[PointSet, Trace]'",
    'l2disc.core.MeasureId.parse':
        '(cls, tag: "\'str | MeasureId\'") -> "\'MeasureId\'"',
    'l2disc.core.PointSet':
        "(coords: 'np.ndarray') -> None",
    'l2disc.core.SquaredDiscrepancy':
        "(measure: 'MeasureId', value: 'float', n: 'int', d: 'int') -> None",
    'l2disc.core.WeightVector':
        "(gamma: 'np.ndarray') -> None",
    'l2disc.core.nearest_vertex':
        "(a: 'Sequence[float] | np.ndarray') -> 'np.ndarray'",
    'l2disc.core.reflect':
        "(points: 'PointSet', keep: 'Iterable[int]') -> 'PointSet'",
    'l2disc.evaluator.asd_by_reflection':
        "(points: 'PointSet') -> 'SquaredDiscrepancy'",
    'l2disc.evaluator.gradient':
        "(spec: 'KernelSpec', points: 'PointSet') -> 'np.ndarray'",
    'l2disc.evaluator.greedy_contribution':
        "(spec: 'KernelSpec', points: 'PointSet', y) -> 'float'",
    'l2disc.evaluator.squared_discrepancy':
        "(spec: 'KernelSpec', points: 'PointSet') -> 'SquaredDiscrepancy'",
    'l2disc.evaluator.squared_value':
        "(spec: 'KernelSpec', coords: 'np.ndarray') -> 'float'",
    'l2disc.evaluator.value_and_gradient':
        "(spec: 'KernelSpec', coords: 'np.ndarray') -> 'tuple[float, np.ndarray]'",
    'l2disc.generators.DirectionNumbers':
        "(rows: 'tuple') -> None",
    'l2disc.generators.DirectionNumbers.default':
        '(cls) -> "\'DirectionNumbers\'"',
    'l2disc.generators.DirectionNumbers.from_file':
        '(cls, path) -> "\'DirectionNumbers\'"',
    'l2disc.generators.DirectionNumbers.from_text':
        '(cls, text: \'str\', header: \'bool\' = True) -> "\'DirectionNumbers\'"',
    'l2disc.generators.fibonacci_lattice':
        "(n: 'int') -> 'PointSet'",
    'l2disc.generators.grid':
        "(k: 'int', d: 'int') -> 'PointSet'",
    'l2disc.generators.iid_uniform':
        "(n: 'int', d: 'int', seed: 'int') -> 'PointSet'",
    'l2disc.generators.replicated_point':
        "(p, n: 'int') -> 'PointSet'",
    'l2disc.generators.sobol':
        '(n: \'int\', d: \'int\', direction_numbers: "\'DirectionNumbers | None\'" = None) -> \'PointSet\'',
    'l2disc.kernels.KernelSpec':
        '(measure: \'MeasureId\', d: \'int\', a: \'float\', continuous: \'bool\', has_geometric_oracle: \'bool\', gamma: \'Optional[np.ndarray]\' = None, b_col: \'Callable\' = None, b_prime_col: \'Callable\' = None, c_col: \'Callable\' = None, c_dx_col: \'Optional[Callable]\' = None, eb: "\'float | np.ndarray\'" = 0.0, ec_uv: "\'float | np.ndarray\'" = 0.0, ec_uu: "\'float | np.ndarray\'" = 0.0) -> None',
    'l2disc.kernels.KernelSpec.eb_product':
        "(self) -> 'float'",
    'l2disc.kernels.KernelSpec.ecuu_product':
        "(self) -> 'float'",
    'l2disc.kernels.KernelSpec.ecuv_product':
        "(self) -> 'float'",
    'l2disc.kernels.expectation_constants':
        "(spec: 'KernelSpec')",
    'l2disc.kernels.kernel_spec':
        '(measure: "\'MeasureId | str\'", d: \'int\', gamma=None) -> \'KernelSpec\'',
    'l2disc.oracle.OracleEstimate':
        "(mean: 'float', stderr: 'float', samples: 'int', seed: 'int') -> None",
    'l2disc.oracle.OracleEstimate.agrees_with':
        "(self, value: 'float', sigmas: 'float' = 4.0) -> 'bool'",
    'l2disc.oracle.box_membership':
        '(measure: "\'MeasureId | str\'", x, a, b=None)',
    'l2disc.oracle.even_subset_volume':
        "(a) -> 'float'",
    'l2disc.oracle.local_discrepancy':
        "(points: 'PointSet', inside: 'np.ndarray', volume: 'float') -> 'float'",
    'l2disc.oracle.mc_expected_iid':
        '(measure: "\'MeasureId | str\'", n: \'int\', d: \'int\', replications: \'int\', seed: \'int\', gamma=None) -> \'OracleEstimate\'',
    'l2disc.oracle.mc_squared_discrepancy':
        '(measure: "\'MeasureId | str\'", points: \'PointSet\', samples: \'int\', seed: \'int\') -> \'OracleEstimate\'',
    'l2disc.pathology.PathologyRow':
        "(measure: 'MeasureId', d: 'int', n_times_expected: 'float', anchor: 'str', single_value: 'float', threshold: 'float', table1_match: 'str', expected_match: 'str', single_match: 'str', threshold_match: 'str', notes: 'str' = '') -> None",
    'l2disc.pathology.ReferenceRow':
        "(n_times_expected: 'Callable[[int], float]', anchor: 'str', single_value: 'Optional[Callable[[int], float]]', threshold: 'Callable[[int], float]', threshold_is_approximate: 'bool' = False) -> None",
    'l2disc.pathology.anchor_description':
        "(measure: 'MeasureId') -> 'str'",
    'l2disc.pathology.anchor_point':
        "(measure: 'MeasureId', d: 'int') -> 'np.ndarray'",
    'l2disc.pathology.check_asd_superiority':
        "(d: 'int', n: 'int') -> 'bool'",
    'l2disc.pathology.expected_iid_squared':
        "(measure, n: 'int', d: 'int', *, gamma=None) -> 'float'",
    'l2disc.pathology.iid_threshold':
        "(measure, d: 'int', *, gamma=None) -> 'float'",
    'l2disc.pathology.pathology_row':
        "(measure, d: 'int') -> 'PathologyRow'",
    'l2disc.pathology.pathology_table':
        "(d_list: 'Sequence[int]') -> 'list[PathologyRow]'",
    'l2disc.pathology.reference_row':
        "(measure: 'MeasureId') -> 'ReferenceRow'",
    'l2disc.pathology.single_point_value':
        "(measure, d: 'int', anchor, *, gamma=None) -> 'float'",
}


def _signatures():
    sigs = {}
    for name in ALL:
        mod = importlib.import_module(name)
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
                sigs[f"{obj.__module__}.{obj.__qualname__}"] = str(inspect.signature(obj))
            if inspect.isclass(obj) and obj.__module__.startswith("l2disc."):
                for meth, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        sigs[f"{obj.__module__}.{fn.__qualname__}"] = str(inspect.signature(fn))
    return sigs


@pytest.mark.parametrize("module", ALL)
def test_all_is_unchanged(module):
    assert tuple(importlib.import_module(module).__all__) == ALL[module]


def test_signatures_are_unchanged():
    assert _signatures() == SIGNATURES


def test_import_loads_neither_scipy_nor_numpy_polynomial():
    # scipy.optimize (optimize's L-BFGS-B) and numpy.polynomial (the
    # quadrature nodes) load on first use, so `import l2disc` pays for neither
    code = ("import sys, l2disc; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
