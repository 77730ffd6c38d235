"""Deterministic geometric stand-in for the rendered indoor environment.

Scenes are pairs of rectangular support surfaces plus a fixed camera. Three of
the nine catalog objects are active at a time (axis-aligned boxes); the rest
wait in a container and get swapped in. A step displaces the round-robin slot
object; valid placements (fully on a surface, base snapped to the top, no box
interpenetration) pay +1 and emit a metadata snapshot, invalid ones pay -1.
A step checks its candidate first and changes the scene only when it is valid.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

OBS_DIM = 32
CATALOG_SIZE = 9
ACTIVE_COUNT = 3

DEFAULT_DMAX = 0.25
DEFAULT_SNAP_TOL = 0.05
DEFAULT_P_SWAP = 1.0
DEFAULT_MAX_ATTEMPTS = 1000


class SceneConfigError(ValueError):
    """Malformed scene-suite config."""


class PlacementError(RuntimeError):
    """Rejection sampling could not find a valid configuration."""


class EpisodeAborted(RuntimeError):
    """Scene cycling failed to re-place the active objects."""


@dataclass(frozen=True)
class ObjectSpec:
    name: str
    half_extents: tuple[float, float, float]


@dataclass(frozen=True)
class Surface:
    top_center: tuple[float, float, float]
    half_extent_x: float
    half_extent_z: float

    @property
    def top_y(self) -> float:
        return self.top_center[1]


@dataclass(frozen=True)
class CameraPose:
    position: tuple[float, float, float]
    yaw: float
    pitch: float
    roll: float


@dataclass(frozen=True)
class SceneSpec:
    scene_id: int
    surfaces: tuple[Surface, Surface]
    camera: CameraPose


@dataclass(frozen=True)
class SceneSuite:
    catalog: tuple[ObjectSpec, ...]
    scenes: tuple[SceneSpec, ...]

    def spec(self, name: str) -> ObjectSpec:
        return self._by_name[name]

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {o.name: o for o in self.catalog})

    @property
    def catalog_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.catalog)


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    reason: str  # ok | off_surface | no_support | overlap

    def __post_init__(self):
        assert (self.reason == "ok") == self.valid


# a placement check's four outcomes, built once
_OK = ValidityReport(True, "ok")
_OFF_SURFACE = ValidityReport(False, "off_surface")
_NO_SUPPORT = ValidityReport(False, "no_support")
_OVERLAP = ValidityReport(False, "overlap")


@dataclass(frozen=True)
class SceneSnapshot:
    scene_id: int
    names: tuple[str, str, str]
    positions: tuple[tuple[float, float, float], ...]
    yaws: tuple[float, float, float]
    camera: CameraPose


@dataclass
class SceneState:
    scene_pos: int  # index into the suite's scene list
    active: list[str]
    positions: np.ndarray  # (3, 3) object centers
    yaws: np.ndarray  # (3,) degrees
    container: list[str]
    moved_slot: int = 0
    step_index: int = 0
    valid_count: int = 0


@dataclass(frozen=True)
class StepResult:
    observation: np.ndarray
    reward: float
    done: bool
    snapshot: SceneSnapshot | None
    report: ValidityReport
    truncated: bool = False


# --- suite loading -----------------------------------------------------------


def _surfaces_overlap_plan(a: Surface, b: Surface) -> bool:
    return (
        abs(a.top_center[0] - b.top_center[0]) < a.half_extent_x + b.half_extent_x
        and abs(a.top_center[2] - b.top_center[2]) < a.half_extent_z + b.half_extent_z
    )


def _fitting(surfaces, half) -> list[Surface]:
    """The surfaces an object of half extents `half` fits on, strictly inside."""
    return [s for s in surfaces if s.half_extent_x > half[0] and s.half_extent_z > half[2]]


def is_finite_number(value) -> bool:
    """An int or a float, not a bool, that converts to a finite float: not NaN,
    not infinite, and not an int past float range, on which math.isfinite raises."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _number(value) -> float:
    if not is_finite_number(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def _vec3(values) -> tuple[float, float, float]:
    x, y, z = map(_number, values)
    return x, y, z


def suite_from_dict(doc: dict) -> SceneSuite:
    """Build a suite from its JSON form; a missing key, a value of the wrong
    type, a repeated scene id, an inconsistent layout or a scene on which some
    catalog object fits no surface raises SceneConfigError.
    """
    try:
        return _suite_from_dict(doc)
    except SceneConfigError:
        raise
    except KeyError as exc:
        raise SceneConfigError(f"suite is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneConfigError(f"malformed suite: {exc}") from exc


def _suite_from_dict(doc: dict) -> SceneSuite:
    catalog = tuple(ObjectSpec(o["name"], _vec3(o["half_extents"])) for o in doc["catalog"])
    if len(catalog) != CATALOG_SIZE:
        raise SceneConfigError(f"catalog must have {CATALOG_SIZE} entries")
    names = [o.name for o in catalog]
    if len(set(names)) != len(names):
        raise SceneConfigError("catalog names must be unique")
    from .prompts import PRIMITIVES, words  # prompts imports scene

    for name in names:
        if not words(name):  # captions would name the object with blanks
            raise SceneConfigError(f"catalog name {name!r} has no words")
        # a spatial word in a name would add a term to every caption naming it
        if set(words(name)) & set(PRIMITIVES):
            raise SceneConfigError(f"catalog name {name!r} contains a spatial word")
    for o in catalog:
        if any(h <= 0 for h in o.half_extents):
            raise SceneConfigError(f"non-positive half extents for {o.name}")

    scenes = []
    for s in doc["scenes"]:
        surfaces = tuple(
            Surface(
                _vec3(surf["top_center"]),
                _number(surf["half_extent_x"]),
                _number(surf["half_extent_z"]),
            )
            for surf in s["surfaces"]
        )
        if len(surfaces) != 2:
            raise SceneConfigError("each scene needs exactly 2 surfaces")
        for surf in surfaces:
            if surf.half_extent_x <= 0 or surf.half_extent_z <= 0:
                raise SceneConfigError("surface extents must be positive")
        if _surfaces_overlap_plan(*surfaces):
            raise SceneConfigError("surfaces overlap in plan view")
        scene_id = s["id"]
        if type(scene_id) is not int:  # a bool is no int
            raise SceneConfigError(f"scene id must be an int, got {scene_id!r}")
        if any(spec.scene_id == scene_id for spec in scenes):
            raise SceneConfigError(f"duplicate scene id {scene_id}")
        for o in catalog:
            if not _fitting(surfaces, o.half_extents):
                raise SceneConfigError(f"{o.name} fits no surface of scene {scene_id}")
        cam = s["camera"]
        camera = CameraPose(
            _vec3(cam["position"]),
            _number(cam["yaw"]),
            _number(cam["pitch"]),
            _number(cam["roll"]),
        )
        for surf in surfaces:
            cx, cy, cz = camera.position
            inside_plan = (
                abs(cx - surf.top_center[0]) < surf.half_extent_x
                and abs(cz - surf.top_center[2]) < surf.half_extent_z
            )
            if inside_plan and cy <= surf.top_y:
                raise SceneConfigError("camera inside a surface volume")
        scenes.append(SceneSpec(scene_id, surfaces, camera))
    if not scenes:
        raise SceneConfigError("suite has no scenes")
    return SceneSuite(catalog, tuple(scenes))


def load_suite(path) -> SceneSuite:
    with open(path, "r", encoding="utf-8") as f:
        return suite_from_dict(json.load(f))


def builtin_suite(name: str) -> SceneSuite:
    """Checked-in suites: 'train' (5 scenes) and 'test' (3 held-out scenes)."""
    if name not in ("train", "test"):
        raise SceneConfigError(f"unknown builtin suite {name!r}")
    text = resources.files("rls3.data").joinpath(f"scenes_{name}.json").read_text()
    return suite_from_dict(json.loads(text))


# --- geometry ----------------------------------------------------------------


def boxes_interpenetrate(center_a, half_a, center_b, half_b) -> bool:
    """Strict-interior AABB intersection; boxes sharing a face plane do not count."""
    ax, ay, az = center_a
    bx, by, bz = center_b
    hax, hay, haz = half_a
    hbx, hby, hbz = half_b
    return bool(
        abs(ax - bx) < hax + hbx and abs(ay - by) < hay + hby and abs(az - bz) < haz + hbz
    )


def footprint_on_surface(center, half, surf: Surface) -> bool:
    return (
        abs(center[0] - surf.top_center[0]) + half[0] <= surf.half_extent_x
        and abs(center[2] - surf.top_center[2]) + half[2] <= surf.half_extent_z
    )


# --- environment -------------------------------------------------------------

# Divisors of observe()'s features at the agent's network boundary: the
# angular entries, in degrees, would otherwise saturate the first tanh layer.
OBS_SCALE = np.ones(OBS_DIM)
OBS_SCALE[0] = 2.0  # moved slot 0..2
OBS_SCALE[1] = 7.0  # scene id
OBS_SCALE[23:26] = 180.0  # object yaws, degrees
OBS_SCALE[29:32] = 180.0  # camera yaw/pitch/roll, degrees
OBS_SCALE.flags.writeable = False


class PlacementEnv:
    """Owns one SceneState at a time; all randomness flows through one seeded rng."""

    def __init__(
        self,
        suite: SceneSuite,
        samples_per_episode: int,
        seed: int | np.random.SeedSequence = 0,
        dmax: float = DEFAULT_DMAX,
        snap_tol: float = DEFAULT_SNAP_TOL,
        p_swap: float = DEFAULT_P_SWAP,
    ):
        if samples_per_episode <= 0:
            raise ValueError("samples_per_episode must be positive")
        self.suite = suite
        self.t0 = int(samples_per_episode)
        self.t_max = 4 * self.t0
        self.dmax = float(dmax)
        self.snap_tol = float(snap_tol)
        self.p_swap = float(p_swap)
        self.cycle_period = math.ceil(self.t0 / len(suite.scenes))
        self._rng = np.random.default_rng(seed)
        self._state: SceneState | None = None
        self._obs_fixed = [_fixed_observation(scene) for scene in suite.scenes]

    # -- state access

    @property
    def state(self) -> SceneState:
        if self._state is None:
            raise RuntimeError("environment not initialized; call reset_episode")
        return self._state

    def scene(self) -> SceneSpec:
        return self.suite.scenes[self.state.scene_pos]

    # -- operations

    def reset_episode(self, episode_idx: int) -> np.ndarray:
        scene_pos = episode_idx % len(self.suite.scenes)
        names, positions, yaws = _draw_configuration(
            self.suite, self.suite.scenes[scene_pos], self._rng
        )
        self._state = SceneState(
            scene_pos=scene_pos,
            active=names[:ACTIVE_COUNT],
            positions=positions,
            yaws=yaws,
            container=names[ACTIVE_COUNT:],
        )
        return self.observe()

    def _check(
        self, slot: int, name: str, x: float, y: float, z: float
    ) -> tuple[ValidityReport, tuple[float, float, float] | None]:
        """Validity of object `name` in `slot` at a finite candidate position,
        given as Python floats, and that position snapped, as a tuple."""
        state = self.state
        half = self.suite.spec(name).half_extents
        for support in self.suite.scenes[state.scene_pos].surfaces:
            if footprint_on_surface((x, y, z), half, support):
                break
        else:
            return _OFF_SURFACE, None
        if abs((y - half[1]) - support.top_y) > self.snap_tol:
            return _NO_SUPPORT, None
        snapped = (x, support.top_y + half[1], z)
        positions = state.positions.tolist()
        for other in range(ACTIVE_COUNT):
            if other == slot:
                continue
            other_half = self.suite.spec(state.active[other]).half_extents
            if boxes_interpenetrate(snapped, half, positions[other], other_half):
                return _OVERLAP, None
        return _OK, snapped

    def step(self, action) -> StepResult:
        state = self.state
        slot = state.moved_slot
        action = np.asarray(action, dtype=float)
        name = state.active[slot]
        x, y, z = state.positions[slot].tolist()

        # The swap is drawn before validity is known and written only on a valid move.
        swapped_with = None
        if self._rng.random() < self.p_swap:
            swapped_with = int(self._rng.integers(len(state.container)))
            base = y - self.suite.spec(name).half_extents[1]
            name = state.container[swapped_with]
            y = base + self.suite.spec(name).half_extents[1]

        # A non-finite or wrong-shape action is off_surface.
        moves = action.tolist() if action.shape == (3,) else [math.inf]
        if all(map(math.isfinite, moves)):
            dx, dy, dz = [(-1.0 if a < -1.0 else 1.0 if a > 1.0 else a) * self.dmax for a in moves]
            report, snapped = self._check(slot, name, x + dx, y + dy, z + dz)
        else:
            report, snapped = _OFF_SURFACE, None

        snapshot = None
        if report.valid:
            if swapped_with is not None:
                state.container[swapped_with] = state.active[slot]
                state.active[slot] = name
            state.positions[slot] = snapped
            state.valid_count += 1
            snapshot = self.snapshot()

        state.step_index += 1
        state.moved_slot = (slot + 1) % ACTIVE_COUNT
        done = state.valid_count >= self.t0 or state.step_index >= self.t_max
        truncated = done and state.valid_count < self.t0
        if report.valid and not done and state.valid_count % self.cycle_period == 0:
            self.advance_scene()
        reward = 1.0 if report.valid else -1.0
        return StepResult(self.observe(), reward, done, snapshot, report, truncated)

    def advance_scene(self) -> None:
        state = self.state
        state.scene_pos = (state.scene_pos + 1) % len(self.suite.scenes)
        scene = self.suite.scenes[state.scene_pos]
        try:
            state.positions = sample_positions(self.suite, scene, state.active, self._rng)
        except PlacementError as exc:
            raise EpisodeAborted(
                f"re-placement failed on scene {scene.scene_id}: {exc}"
            ) from exc

    def observe(self) -> np.ndarray:
        state = self.state
        head, camera = self._obs_fixed[state.scene_pos]
        values = [
            float(state.moved_slot),
            *head,
            *state.positions.ravel().tolist(),
            *state.yaws.tolist(),
            *camera,
        ]
        obs = np.array(values)
        assert obs.shape == (OBS_DIM,) and all(map(math.isfinite, values))
        return obs

    def snapshot(self) -> SceneSnapshot:
        state = self.state
        return _snapshot(self.scene(), state.active, state.positions, state.yaws)


def _fixed_observation(scene: SceneSpec) -> tuple[list[float], list[float]]:
    """observe()'s entries that the scene fixes: those before the objects (the
    scene id, then each surface's top center and extents) and those after them
    (the camera)."""
    head = [float(scene.scene_id)]
    for surf in scene.surfaces:
        head += [*surf.top_center, surf.half_extent_x, 0.0, surf.half_extent_z]
    cam = scene.camera
    return head, [*cam.position, cam.yaw, cam.pitch, cam.roll]


def _draw_configuration(suite: SceneSuite, scene: SceneSpec, rng: np.random.Generator):
    """Seeded catalog order, and positions and yaws for its first ACTIVE_COUNT names."""
    names = [suite.catalog[i].name for i in rng.permutation(CATALOG_SIZE).tolist()]
    positions = sample_positions(suite, scene, names[:ACTIVE_COUNT], rng)
    yaws = rng.uniform(0.0, 360.0, size=ACTIVE_COUNT)
    return names, positions, yaws


def _snapshot(scene: SceneSpec, names, positions, yaws) -> SceneSnapshot:
    return SceneSnapshot(
        scene_id=scene.scene_id,
        names=tuple(names),
        positions=tuple(map(tuple, positions.tolist())),
        yaws=tuple(yaws.tolist()),
        camera=scene.camera,
    )


def sample_positions(
    suite: SceneSuite,
    scene: SceneSpec,
    names: list[str],
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> np.ndarray:
    """Seeded rejection sampling of non-overlapping on-surface placements."""
    placed: list[tuple[tuple[float, float, float], tuple[float, float, float]]] = []
    attempts = 0
    for name in names:
        half = suite.spec(name).half_extents
        fitting = _fitting(scene.surfaces, half)
        if not fitting:
            raise PlacementError(f"{name} fits no surface of scene {scene.scene_id}")
        while True:
            attempts += 1
            if attempts > max_attempts:
                raise PlacementError(
                    f"rejection sampling exceeded {max_attempts} attempts"
                )
            surf = fitting[int(rng.integers(len(fitting)))]
            x = rng.uniform(
                surf.top_center[0] - (surf.half_extent_x - half[0]),
                surf.top_center[0] + (surf.half_extent_x - half[0]),
            )
            z = rng.uniform(
                surf.top_center[2] - (surf.half_extent_z - half[2]),
                surf.top_center[2] + (surf.half_extent_z - half[2]),
            )
            pos = (x, surf.top_y + half[1], z)
            if not any(boxes_interpenetrate(pos, half, p, h) for p, h in placed):
                break
        placed.append((pos, half))
    return np.array([pos for pos, _ in placed]).reshape(len(names), 3)


def random_snapshot(
    suite: SceneSuite,
    scene_pos: int,
    rng: np.random.Generator,
) -> SceneSnapshot:
    """One seeded random valid configuration, used for fixed dataset generation."""
    scene = suite.scenes[scene_pos % len(suite.scenes)]
    names, positions, yaws = _draw_configuration(suite, scene, rng)
    return _snapshot(scene, names[:ACTIVE_COUNT], positions, yaws)
