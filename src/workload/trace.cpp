#include "workload/trace.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace brb::workload {

namespace {
constexpr const char* kHeader = "#brb-trace-v1";
}

void TraceWriter::write(std::ostream& os, const std::vector<TaskSpec>& tasks) {
  os << kHeader << '\n';
  for (const TaskSpec& task : tasks) {
    os << task.id << ',' << task.client << ',' << task.arrival.count_nanos() << ',';
    for (std::size_t i = 0; i < task.requests.size(); ++i) {
      if (i > 0) os << ';';
      os << task.requests[i].key << ':' << task.requests[i].size_hint;
    }
    os << '\n';
  }
}

void TraceWriter::write_file(const std::string& path, const std::vector<TaskSpec>& tasks) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("TraceWriter: cannot open " + path);
  write(out, tasks);
  if (!out) throw std::runtime_error("TraceWriter: write failed for " + path);
}

std::vector<TaskSpec> TraceReader::read(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    throw std::runtime_error("TraceReader: missing trace header");
  }
  std::vector<TaskSpec> tasks;
  std::set<store::TaskId> ids;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    std::stringstream ss(line);
    std::string field;
    TaskSpec task;
    try {
      if (!std::getline(ss, field, ',')) throw std::runtime_error("missing task id");
      task.id = std::stoull(field);
      if (!ids.insert(task.id).second) {
        throw std::runtime_error("duplicate task id " + std::to_string(task.id));
      }
      if (!std::getline(ss, field, ',')) throw std::runtime_error("missing client");
      task.client = static_cast<store::ClientId>(std::stoul(field));
      if (!std::getline(ss, field, ',')) throw std::runtime_error("missing arrival");
      task.arrival = sim::Time::nanos(std::stoll(field));
      if (!std::getline(ss, field)) throw std::runtime_error("missing requests");
      std::stringstream reqs(field);
      std::string req;
      while (std::getline(reqs, req, ';')) {
        const auto colon = req.find(':');
        if (colon == std::string::npos) throw std::runtime_error("malformed request " + req);
        RequestSpec spec;
        spec.key = std::stoull(req.substr(0, colon));
        spec.size_hint = static_cast<std::uint32_t>(std::stoul(req.substr(colon + 1)));
        task.requests.push_back(spec);
      }
      if (task.requests.empty()) throw std::runtime_error("task with no requests");
    } catch (const std::exception& e) {
      throw std::runtime_error("TraceReader: line " + std::to_string(line_no) + ": " + e.what());
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

std::vector<TaskSpec> TraceReader::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("TraceReader: cannot open " + path);
  return read(in);
}

}  // namespace brb::workload
