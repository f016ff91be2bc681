#include "src/obs/chrome_trace.h"

namespace ctobs {

ChromeTraceWriter::ChromeTraceWriter() { json_.BeginObject().Key("traceEvents").BeginArray(); }

void ChromeTraceWriter::AddProcessName(int pid, const std::string& name) {
  json_.BeginObject();
  json_.Key("name").String("process_name");
  json_.Key("ph").String("M");
  json_.Key("pid").Int(pid);
  json_.Key("tid").Int(0);
  json_.Key("args").BeginObject().Key("name").String(name).EndObject();
  json_.EndObject();
}

void ChromeTraceWriter::AddThreadName(int pid, int tid, const std::string& name) {
  json_.BeginObject();
  json_.Key("name").String("thread_name");
  json_.Key("ph").String("M");
  json_.Key("pid").Int(pid);
  json_.Key("tid").Int(tid);
  json_.Key("args").BeginObject().Key("name").String(name).EndObject();
  json_.EndObject();
}

void ChromeTraceWriter::AddCompleteEvent(
    int pid, int tid, std::string_view name, std::string_view category, double ts_us,
    double dur_us, double wall_ms,
    std::initializer_list<std::pair<std::string_view, std::string>> args) {
  json_.BeginObject();
  json_.Key("name").String(name);
  json_.Key("cat").String(category);
  json_.Key("ph").String("X");
  json_.Key("pid").Int(pid);
  json_.Key("tid").Int(tid);
  json_.Key("ts").Fixed(ts_us, 3);
  json_.Key("dur").Fixed(dur_us, 3);
  json_.Key("args").BeginObject();
  json_.Key("wall_ms").Fixed(wall_ms, 3);
  for (const auto& [key, value] : args) {
    json_.Key(key).String(value);
  }
  json_.EndObject();
  json_.EndObject();
}

void ChromeTraceWriter::AddFlowStart(int pid, int tid, const std::string& name,
                                     uint64_t flow_id, double ts_us) {
  json_.BeginObject();
  json_.Key("name").String(name);
  json_.Key("cat").String("flow");
  json_.Key("ph").String("s");
  json_.Key("pid").Int(pid);
  json_.Key("tid").Int(tid);
  json_.Key("id").Int(flow_id);
  json_.Key("ts").Fixed(ts_us, 3);
  json_.EndObject();
}

void ChromeTraceWriter::AddFlowFinish(int pid, int tid, const std::string& name,
                                      uint64_t flow_id, double ts_us) {
  json_.BeginObject();
  json_.Key("name").String(name);
  json_.Key("cat").String("flow");
  json_.Key("ph").String("f");
  json_.Key("bp").String("e");
  json_.Key("pid").Int(pid);
  json_.Key("tid").Int(tid);
  json_.Key("id").Int(flow_id);
  json_.Key("ts").Fixed(ts_us, 3);
  json_.EndObject();
}

std::string ChromeTraceWriter::ToJson() const {
  JsonWriter json = json_;
  json.EndArray().Key("displayTimeUnit").String("ms").EndObject();
  return json.str();
}

}  // namespace ctobs
