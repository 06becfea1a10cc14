package codec

import (
	"sync/atomic"

	"ipdelta/internal/obs"
)

// codecMetrics holds the pre-resolved metric handles of the package-level
// observer (DESIGN.md §9). Handles are bound once in SetObserver; the
// encode/decode paths only load one atomic pointer and bump counters, so
// observation adds no per-call allocations.
type codecMetrics struct {
	encodes        *obs.Counter
	encodeBytes    *obs.Counter
	encodeCommands *obs.Counter
	encodeErrors   *obs.Counter

	decodes        *obs.Counter
	decodeBytes    *obs.Counter
	decodeCommands *obs.Counter
	decodeErrors   *obs.Counter
}

// observer is the package-wide metric set. Encode and Decode are free
// functions with no receiver to hang per-instance handles on, so the
// registry attaches at package level, swapped atomically. While no
// registry is attached it holds unobservedCodec, whose nil handles do
// nothing.
var observer atomic.Pointer[codecMetrics]

var unobservedCodec codecMetrics

func init() { observer.Store(&unobservedCodec) }

// SetObserver attaches a metrics registry to the package: every Encode and
// Decode then records call, byte, command, and error counters into it. A
// nil registry detaches. Safe for concurrent use with in-flight calls; a
// call that started before SetObserver keeps reporting to the registry it
// loaded first.
func SetObserver(r *obs.Registry) {
	if r == nil {
		observer.Store(&unobservedCodec)
		return
	}
	observer.Store(&codecMetrics{
		encodes:        r.Counter("ipdelta_codec_encode_total"),
		encodeBytes:    r.Counter("ipdelta_codec_encode_bytes_total"),
		encodeCommands: r.Counter("ipdelta_codec_encode_commands_total"),
		encodeErrors:   r.Counter("ipdelta_codec_encode_errors_total"),
		decodes:        r.Counter("ipdelta_codec_decode_total"),
		decodeBytes:    r.Counter("ipdelta_codec_decode_bytes_total"),
		decodeCommands: r.Counter("ipdelta_codec_decode_commands_total"),
		decodeErrors:   r.Counter("ipdelta_codec_decode_errors_total"),
	})
}
