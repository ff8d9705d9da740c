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
    euler_rate_matrix,
    euler_to_quat,
    euler_to_rotmat,
    quat_to_euler,
    quat_to_rotmat,
    rotmat_to_euler,
    rotmat_to_quat,
)
from .vehicle import (
    ActuatorCmd,
    VehicleParams,
    Wrench,
    cmd_to_wrench,
    default_robofly_params,
    drive_signal,
    hover_cmd,
    hover_thrust,
    load_params,
    save_params,
    wrench_to_cmd,
)
from .dynamics import (
    SimState,
    UnmodeledTerms,
    hover_equilibrium,
    rk4_step,
    state_derivative,
)
from .lqr import (
    LinearModel,
    LqrSolution,
    LqrWeights,
    default_weights,
    finite_diff_jacobian,
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
    CtrlState,
    Setpoint,
    assemble_ctrl_state,
    control_step,
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
)
from .pipeline import (
    BodyOffset,
    EnvelopeGrid,
    FilterConfig,
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
    write_mocap_csv,
)

__version__ = "0.1.0"
