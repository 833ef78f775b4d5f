package core

import (
	"witrack/internal/motion"
	"witrack/internal/trace"
)

// SweepTraceHeaderInt16 is SweepTraceHeader, which stamps the int16
// quantizer itself on a device with Radio.ADCBits.
//
// Deprecated: use SweepTraceHeader. The perfbench module is the last
// caller.
func (d *Device) SweepTraceHeaderInt16() trace.Header { return d.SweepTraceHeader() }

// RecordSweepsInt16To is RecordTo, which records int16 codes whenever
// tw's header comes from SweepTraceHeader on a device with ADCBits.
//
// Deprecated: use RecordTo. The perfbench module is the last caller.
func (d *Device) RecordSweepsInt16To(tw *trace.Writer, traj motion.Trajectory) (int, error) {
	return d.RecordTo(tw, traj)
}
