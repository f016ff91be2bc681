#include "src/model/program_model.h"

#include "src/common/check.h"

namespace ctmodel {

void ProgramModel::AddType(TypeDecl type) {
  CT_CHECK_MSG(type_index_.find(type.name) == type_index_.end(), type.name.c_str());
  type_index_[type.name] = static_cast<int>(types_.size());
  types_.push_back(std::move(type));
}

void ProgramModel::AddField(FieldDecl field) {
  if (field.id.empty()) {
    field.id = field.clazz + "." + field.name;
  }
  CT_CHECK_MSG(field_index_.find(field.id) == field_index_.end(), field.id.c_str());
  field_index_[field.id] = static_cast<int>(fields_.size());
  fields_.push_back(std::move(field));
}

void ProgramModel::AddMethod(MethodDecl method) {
  if (method.id.empty()) {
    method.id = method.clazz + "." + method.name;
  }
  CT_CHECK_MSG(method_index_.find(method.id) == method_index_.end(), method.id.c_str());
  method_index_[method.id] = static_cast<int>(methods_.size());
  methods_.push_back(std::move(method));
}

void ProgramModel::AddCallEdge(CallEdgeDecl edge) { call_edges_.push_back(std::move(edge)); }

int ProgramModel::AddAccessPoint(AccessPointDecl point) {
  point.id = static_cast<int>(access_points_.size());
  if (point.executable) {
    executable_access_points_.insert(point.id);
  }
  access_points_.push_back(std::move(point));
  return access_points_.back().id;
}

void ProgramModel::BindLog(LogBinding binding) { log_bindings_.push_back(std::move(binding)); }

void ProgramModel::AddIoMethod(IoMethodDecl method) { io_methods_.push_back(std::move(method)); }

int ProgramModel::AddIoPoint(IoPointDecl point) {
  point.id = static_cast<int>(io_points_.size());
  io_points_.push_back(std::move(point));
  return io_points_.back().id;
}

void ProgramModel::AddNetworkFaultWindow(NetworkFaultWindowDecl window) {
  network_fault_windows_.push_back(std::move(window));
}

void ProgramModel::AddGrammarOp(GrammarOpDecl op) { grammar_ops_.push_back(std::move(op)); }

const TypeDecl* ProgramModel::FindType(const std::string& name) const {
  auto it = type_index_.find(name);
  return it == type_index_.end() ? nullptr : &types_[it->second];
}

const FieldDecl* ProgramModel::FindField(const std::string& id) const {
  auto it = field_index_.find(id);
  return it == field_index_.end() ? nullptr : &fields_[it->second];
}

const MethodDecl* ProgramModel::FindMethod(const std::string& id) const {
  auto it = method_index_.find(id);
  return it == method_index_.end() ? nullptr : &methods_[it->second];
}

std::string ProgramModel::ContextMethodOf(const AccessPointDecl& point) {
  if (!point.context_method.empty()) {
    return point.context_method;
  }
  return point.clazz + "." + point.method;
}

const AccessPointDecl& ProgramModel::access_point(int id) const {
  CT_CHECK(id >= 0 && id < static_cast<int>(access_points_.size()));
  return access_points_[id];
}

bool ProgramModel::IsSubtypeOf(const std::string& name, const std::string& ancestor) const {
  std::string current = name;
  // Walks the supertype chain; models are acyclic by construction but we
  // bound the walk defensively.
  for (int hops = 0; hops < 64; ++hops) {
    if (current == ancestor) {
      return true;
    }
    const TypeDecl* type = FindType(current);
    if (type == nullptr || type->supertype.empty()) {
      return false;
    }
    current = type->supertype;
  }
  return false;
}

std::vector<std::string> ProgramModel::SubtypesOf(const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& type : types_) {
    if (type.supertype == name) {
      out.push_back(type.name);
    }
  }
  return out;
}

std::vector<std::string> ProgramModel::CollectionsOf(const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& type : types_) {
    for (const auto& element : type.element_types) {
      if (element == name) {
        out.push_back(type.name);
        break;
      }
    }
  }
  return out;
}

std::vector<const MethodDecl*> ProgramModel::MethodsOf(const std::string& clazz) const {
  std::vector<const MethodDecl*> out;
  for (const auto& method : methods_) {
    if (method.clazz == clazz) {
      out.push_back(&method);
    }
  }
  return out;
}

int ProgramModel::NumIoClasses() const {
  int count = 0;
  for (const auto& type : types_) {
    if (type.closeable) {
      ++count;
    }
  }
  return count;
}

}  // namespace ctmodel
