"""torusflow: Fourier-Galerkin simulation and decay-estimate verification
for two fourth-order parabolic equations on the 2-torus."""

from .spectral import (
    ModeSet,
    SpectralField,
    NormVector,
    wiener_norm,
    norm_vector,
    with_cutoff,
    inner,
    hermitian_asymmetry,
    write_snapshot,
    read_snapshot,
)
from .models import (
    EpitaxialParams,
    ThinFilmParams,
    hessian_det2,
    delta_of_delta_sq,
    epitaxial_rhs,
    power_term,
    thinfilm_rhs,
)
from .integrate import (
    StepperConfig,
    NormTrace,
    RunOutcome,
    step,
    simulate,
    simulate_batch,
)
from .theory import (
    TheoremReport,
    EnvelopeVerdict,
    check_epitaxial_A2,
    check_epitaxial_A0,
    check_thinfilm_A0,
    verify_decay_envelope,
    monitor_apriori_A2,
    TimeProfile,
    weak_residual,
)
from .config import (
    ConfigError,
    InitialDataSpec,
    NormalizeSpec,
    OutputSpec,
    RunConfig,
    parse_config,
    load_config,
    config_to_dict,
    generate_initial,
    prepare_initial,
)
from .output import (
    CSV_HEADER,
    write_trace_csv,
    read_trace_csv,
    write_report_json,
)
from .driver import ExecutionResult, check_only, execute_run, theorem_reports
from .sweep import run_sweep

__version__ = "0.1.0"
