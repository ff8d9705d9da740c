"""Flapping-wing micro air vehicle toolkit.

Stroke-averaged rigid-body simulation, hover LQR synthesis, closed-loop
scenario running, and motion-capture flight-data processing.
"""

from .errors import (
    ConfigError,
    DivergenceError,
    FlapsimError,
    GimbalLockError,
    SchemaError,
    SynthesisError,
)
from .kinematics import (
    EulerAngles321,
    Quaternion,
    euler_to_quat,
    euler_to_rotmat,
    quat_to_rotmat,
    rotmat_to_euler,
)
from .vehicle import (
    ActuatorCmd,
    VehicleParams,
    Wrench,
    cmd_to_wrench,
    default_robofly_params,
    hover_thrust,
    load_params,
    wrench_to_cmd,
)
from .dynamics import (
    SimState,
    UnmodeledTerms,
    rk4_step,
    state_derivative,
)
from .lqr import (
    LinearModel,
    LqrSolution,
    LqrWeights,
    default_weights,
    linearize_hover,
    lqr_gain,
    read_gain_csv,
    solve_care,
    write_gain_csv,
)
from .controller import (
    CircleSchedule,
    ConstantSchedule,
    CsvSchedule,
)
from .harness import (
    DisturbancePulse,
    NoiseConfig,
    RunLog,
    RunMetrics,
    Scenario,
    disturbance_pulse,
    load_scenario,
    metrics,
    run_scenario,
    scenario_from_dict,
    step_error,
)
from .pipeline import (
    BodyOffset,
    EnvelopeGrid,
    MocapTrajectory,
    ReconstructedStates,
    ValidationReport,
    estimate_body_offset,
    flight_envelope,
    load_command_csv,
    load_mocap_csv,
    load_runlog_csv,
    reconstruct,
    reconstruct_runlog,
    trajectory_from_runlog,
    validate_model,
)

__version__ = "0.1.0"
