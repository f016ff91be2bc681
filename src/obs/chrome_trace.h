// Chrome-trace-event export (Perfetto-loadable).
//
// Serializes campaign phases into the Trace Event Format's JSON object form
// ({"traceEvents":[...]}): one process per observed campaign/system, one
// thread per injection slot on the virtual-time axis, and a "driver" thread
// on a normalized wall axis. chrome://tracing and ui.perfetto.dev both open
// the result directly.
#ifndef SRC_OBS_CHROME_TRACE_H_
#define SRC_OBS_CHROME_TRACE_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "src/obs/json.h"

namespace ctobs {

class ChromeTraceWriter {
 public:
  ChromeTraceWriter();

  void AddProcessName(int pid, const std::string& name);
  void AddThreadName(int pid, int tid, const std::string& name);

  // "X" (complete) event. `ts_us`/`dur_us` are microseconds on whichever
  // axis the caller placed the thread on; the event's args hold `wall_ms`,
  // its wall duration, then `args`.
  void AddCompleteEvent(int pid, int tid, std::string_view name, std::string_view category,
                        double ts_us, double dur_us, double wall_ms,
                        std::initializer_list<std::pair<std::string_view, std::string>> args = {});

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
