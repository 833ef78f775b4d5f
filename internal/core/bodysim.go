package core

import (
	"math"
	"math/rand"

	"witrack/internal/body"
	"witrack/internal/geom"
	"witrack/internal/motion"
)

// Arm scatterer slide parameters: the dominant reflection point sits a
// mean of ~15 cm up the forearm and wanders with ~10 cm spread over
// ~0.6 s correlation time.
const (
	armSlideMean = 0.15
	armSlideStd  = 0.10
	armSlideTau  = 0.6
	armLatStd    = 0.09
)

// ouUpdate advances a scalar Ornstein-Uhlenbeck process with the given
// mean, stationary std, and correlation time.
func ouUpdate(x, mean, std, tau, dt float64, rng *rand.Rand) float64 {
	a := math.Exp(-dt / tau)
	return mean + a*(x-mean) + math.Sqrt(1-a*a)*std*rng.NormFloat64()
}

// gaitHz is the stride rate driving trailing body-part depth.
const gaitHz = 1.3

// perAntennaWanderScale is the fraction of the torso-patch wander that
// is independent per receive antenna. The independent component is what
// the ellipsoid intersection amplifies along x and z (dilution of
// precision), reproducing the paper's error anisotropy.
const perAntennaWanderScale = 0.18

// perAntennaWanderTau is the correlation time of the per-antenna speckle
// component. It is much shorter than the gait cycle, so long-window
// smoothing (the fall detector, the hold interpolator) can average it
// away — matching the paper's clean Fig. 6 elevation traces despite the
// ~21 cm per-frame z error.
const perAntennaWanderTau = 0.12

// reflector is one moving scatterer for the current frame.
type reflector struct {
	pt  geom.Vec3
	rcs float64
}

// bodySim holds the per-subject radar-reflection state: the wandering
// torso patch (common + per-antenna components), the gait-driven
// trailing parts, and the gesture arm scatterer. Extracted so a device
// can simulate one body (Device) or several (MultiDevice).
type bodySim struct {
	sub        body.Subject
	rng        *rand.Rand
	reflCommon *body.ReflectionProcess
	reflPerRx  []*body.ReflectionProcess

	gaitPhase   float64
	frozenParts [][]reflector
	haveFrozen  bool

	frozenHand  geom.Vec3
	haveFrozenH bool
	armSlide    float64
	armLat      float64

	prevCenter geom.Vec3
	havePrev   bool
}

// newBodySim builds the reflection state for one subject.
func newBodySim(sub body.Subject, nRx int, rng *rand.Rand) *bodySim {
	b := &bodySim{sub: sub, rng: rng}
	b.reflCommon = body.NewReflectionProcess(sub, rng, 1)
	for i := 0; i < nRx; i++ {
		pr := body.NewReflectionProcess(sub, rng, perAntennaWanderScale)
		pr.SetTau(perAntennaWanderTau)
		b.reflPerRx = append(b.reflPerRx, pr)
	}
	return b
}

// reset clears per-run state.
func (b *bodySim) reset() {
	b.reflCommon.Reset()
	for _, p := range b.reflPerRx {
		p.Reset()
	}
	b.haveFrozen = false
	b.haveFrozenH = false
	b.havePrev = false
}

// reflectorsInto returns the subject's moving scatterers per receive
// antenna for the given state, reusing dst's per-antenna slices so the
// streaming source pays no per-frame allocation once warm: the torso
// patch (whole-body wander common to all antennas plus a per-antenna
// decorrelated component, re-advanced only while the body translates —
// a motionless torso produces frame-to-frame identical paths so
// background subtraction erases it, §4.2/§10), the gait-swinging
// trailing parts, and, during gestures, the arm scatterer with its much
// smaller RCS (§6.1).
func (b *bodySim) reflectorsInto(dst [][]reflector, st motion.BodyState, tx geom.Vec3, nRx int, dt float64) [][]reflector {
	out := dst
	if len(out) != nRx {
		out = make([][]reflector, nRx)
	}

	if st.Moving || !b.haveFrozen {
		cl, cr, cv := b.reflCommon.Offsets(dt, st.Moving)
		// Legs and arms swing only while the body translates
		// horizontally; during a vertical transition (sitting, falling)
		// the limb geometry rides along rigidly.
		horiz := st.Center.Sub(b.prevCenter)
		horiz.Z = 0
		if b.havePrev && st.Moving && horiz.Norm()/dt > 0.3 {
			b.gaitPhase += 2 * math.Pi * gaitHz * dt
		}
		b.prevCenter = st.Center
		b.havePrev = true

		legDepth := 0.22 + 0.10*(0.5+0.5*math.Sin(b.gaitPhase))
		armDepth := 0.12 + 0.07*(0.5+0.5*math.Sin(b.gaitPhase+math.Pi))
		if len(b.frozenParts) != nRx {
			b.frozenParts = make([][]reflector, nRx)
		}
		for k := 0; k < nRx; k++ {
			il, ir, iv := b.reflPerRx[k].Offsets(dt, st.Moving)
			front := body.SurfacePoint(b.sub, st.Center, tx, cl+il, cr+ir, cv+iv)
			leg := body.SurfacePoint(b.sub, st.Center, tx, cl+il, cr+ir-legDepth, cv-0.45)
			arm := body.SurfacePoint(b.sub, st.Center, tx, cl+il, cr+ir-armDepth, cv+0.05)
			// Reuse each antenna's slice across frames: this runs every
			// moving frame and was one of the last steady-state allocators.
			b.frozenParts[k] = append(b.frozenParts[k][:0],
				reflector{pt: front, rcs: 0.60 * b.sub.RCS},
				reflector{pt: leg, rcs: 0.22 * b.sub.RCS},
				reflector{pt: arm, rcs: 0.18 * b.sub.RCS},
			)
		}
		b.haveFrozen = true
	}
	for k := 0; k < nRx; k++ {
		out[k] = append(out[k][:0], b.frozenParts[k]...)
	}

	if st.HandActive {
		shoulder := st.Center.Add(geom.Vec3{Z: 0.30})
		armAxis := shoulder.Sub(st.Hand)
		if n := armAxis.Norm(); n > 1e-6 {
			armAxis = armAxis.Scale(1 / n)
		}
		b.armSlide = ouUpdate(b.armSlide, armSlideMean, armSlideStd, armSlideTau, dt, b.rng)
		slide := b.armSlide
		if slide < 0 {
			slide = 0
		}
		perp := armAxis.Cross(geom.Vec3{Z: 1})
		if n := perp.Norm(); n > 1e-6 {
			perp = perp.Scale(1 / n)
		}
		b.armLat = ouUpdate(b.armLat, 0, armLatStd, armSlideTau, dt, b.rng)
		h := st.Hand.Add(armAxis.Scale(slide)).Add(perp.Scale(b.armLat))
		h.X += b.rng.NormFloat64() * 0.01
		h.Z += b.rng.NormFloat64() * 0.01
		b.frozenHand = h
		b.haveFrozenH = true
	}
	if b.haveFrozenH {
		for k := 0; k < nRx; k++ {
			out[k] = append(out[k], reflector{pt: b.frozenHand, rcs: b.sub.ArmRCS})
		}
	}
	return out
}
