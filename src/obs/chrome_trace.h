// Chrome-trace-event export (Perfetto-loadable).
//
// Serializes campaign spans into the Trace Event Format's JSON object form
// ({"traceEvents":[...]}): one process per observed campaign/system, one
// thread per injection slot on the virtual-time axis, and a "driver" thread
// on a normalized wall axis. chrome://tracing and ui.perfetto.dev both open
// the result directly.
#ifndef SRC_OBS_CHROME_TRACE_H_
#define SRC_OBS_CHROME_TRACE_H_

#include <string>

#include "src/obs/json.h"
#include "src/obs/span.h"

namespace ctobs {

class ChromeTraceWriter {
 public:
  ChromeTraceWriter();

  void AddProcessName(int pid, const std::string& name);
  void AddThreadName(int pid, int tid, const std::string& name);

  // "X" (complete) event. `ts_us`/`dur_us` are microseconds on whichever
  // axis the caller placed the thread on; `wall_ms` is attached to the args
  // for reference alongside the span's own args.
  void AddCompleteEvent(int pid, int tid, const SpanEvent& event, double ts_us,
                        double dur_us);

  // Perfetto flow arrow: a "s" (start) event at the causing slice and a
  // matching "f" (finish, bp:"e") event at the caused slice, linked by
  // `flow_id`. Perfetto draws these as arrows between the enclosing slices.
  void AddFlowStart(int pid, int tid, const std::string& name, uint64_t flow_id,
                    double ts_us);
  void AddFlowFinish(int pid, int tid, const std::string& name, uint64_t flow_id,
                     double ts_us);

  std::string ToJson() const;

 private:
  JsonWriter json_;  // the open traceEvents array; ToJson() closes a copy
};

}  // namespace ctobs

#endif  // SRC_OBS_CHROME_TRACE_H_
