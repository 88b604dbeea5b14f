#include "dynamic/value.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace phpsafe::dynamic {

Value* ArrayData::find(const std::string& key) {
    for (auto& [k, v] : entries)
        if (k == key) return &v;
    return nullptr;
}

const Value* ArrayData::find(const std::string& key) const {
    for (const auto& [k, v] : entries)
        if (k == key) return &v;
    return nullptr;
}

Value Value::boolean(bool b) {
    Value v;
    v.type_ = Type::kBool;
    v.bool_ = b;
    return v;
}

Value Value::integer(long i) {
    Value v;
    v.type_ = Type::kInt;
    v.int_ = i;
    return v;
}

Value Value::real(double d) {
    Value v;
    v.type_ = Type::kFloat;
    v.float_ = d;
    return v;
}

Value Value::string(std::string s) {
    Value v;
    v.type_ = Type::kString;
    v.string_ = std::move(s);
    return v;
}

Value Value::array() {
    Value v;
    v.type_ = Type::kArray;
    v.array_ = std::make_shared<ArrayData>();
    return v;
}

Value Value::object(std::string class_name) {
    Value v;
    v.type_ = Type::kObject;
    v.object_ = std::make_shared<ObjectData>();
    v.object_->class_name = std::move(class_name);
    return v;
}

bool Value::to_bool() const {
    switch (type_) {
        case Type::kNull: return false;
        case Type::kBool: return bool_;
        case Type::kInt: return int_ != 0;
        case Type::kFloat: return float_ != 0;
        case Type::kString: return !string_.empty() && string_ != "0";
        case Type::kArray: return array_ && !array_->entries.empty();
        case Type::kObject: return true;
    }
    return false;
}

long Value::to_int() const {
    switch (type_) {
        case Type::kNull: return 0;
        case Type::kBool: return bool_ ? 1 : 0;
        case Type::kInt: return int_;
        case Type::kFloat:
            // Out-of-range (and non-finite) floats convert to 0 rather
            // than through an undefined cast.
            return float_ >= -0x1p63 && float_ < 0x1p63 ? static_cast<long>(float_)
                                                        : 0;
        case Type::kString: return std::strtol(string_.c_str(), nullptr, 10);
        case Type::kArray: return array_ && !array_->entries.empty() ? 1 : 0;
        case Type::kObject: return 1;
    }
    return 0;
}

double Value::to_float() const {
    switch (type_) {
        case Type::kString: return std::strtod(string_.c_str(), nullptr);
        case Type::kFloat: return float_;
        default: return static_cast<double>(to_int());
    }
}

Value Value::to_number() const {
    if (type_ == Type::kInt || type_ == Type::kFloat) return *this;
    if (type_ != Type::kString) return integer(to_int());
    // PHP's leading-number grammar: [space][sign]digits[.digits][e[sign]digits].
    const std::string& s = string_;
    size_t i = 0;
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    const size_t start = i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    const auto digits = [&] {
        const size_t from = i;
        while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
        return i > from;
    };
    bool mantissa = digits();
    bool is_float = false;
    if (i < s.size() && s[i] == '.') {
        ++i;
        if (digits() || mantissa) mantissa = is_float = true;
    }
    if (mantissa && i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        const size_t mark = i++;
        if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
        if (digits()) is_float = true;
        else i = mark;
    }
    if (!is_float) return integer(to_int());
    return real(std::strtod(s.substr(start, i - start).c_str(), nullptr));
}

std::string Value::to_string() && {
    if (type_ == Type::kString) return std::move(string_);
    return static_cast<const Value&>(*this).to_string();
}

std::string Value::to_string() const& {
    switch (type_) {
        case Type::kNull: return "";
        case Type::kBool: return bool_ ? "1" : "";
        case Type::kInt: return std::to_string(int_);
        case Type::kFloat: {
            // PHP's echo: 14 significant digits, "1.0E+20" exponent form.
            if (std::isnan(float_)) return "NAN";
            if (std::isinf(float_)) return float_ > 0 ? "INF" : "-INF";
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.14G", float_);
            std::string out = buf;
            const size_t e = out.find('E');
            if (e == std::string::npos) return out;
            std::string mantissa = out.substr(0, e);
            if (mantissa.find('.') == std::string::npos) mantissa += ".0";
            size_t exponent = e + 2;  // past 'E' and its sign
            while (exponent + 1 < out.size() && out[exponent] == '0') ++exponent;
            return mantissa + 'E' + out[e + 1] + out.substr(exponent);
        }
        case Type::kString: return string_;
        case Type::kArray: return "Array";
        case Type::kObject: return "Object";
    }
    return "";
}

bool Value::loose_equals(const Value& other) const {
    if (type_ == Type::kString && other.type_ == Type::kString) {
        // PHP 5/7: two numeric strings compare numerically ("1e1" == "10").
        if (is_numeric_string(string_) && is_numeric_string(other.string_))
            return to_float() == other.to_float();
        return string_ == other.string_;
    }
    if (type_ == Type::kNull || other.type_ == Type::kNull)
        return to_bool() == other.to_bool();
    if (type_ == Type::kBool || other.type_ == Type::kBool)
        return to_bool() == other.to_bool();
    if (is_numeric_string(to_string()) && is_numeric_string(other.to_string()))
        return to_float() == other.to_float();
    return to_string() == other.to_string();
}

Value Value::get_element(const std::string& key) const {
    if (type_ != Type::kArray || !array_) return Value();
    const Value* found = array_->find(key);
    return found ? *found : Value();
}

void Value::set_element(const std::string& key, Value value) {
    if (type_ != Type::kArray) {
        *this = array();
    }
    if (Value* found = array_->find(key)) {
        *found = std::move(value);
        return;
    }
    array_->entries.emplace_back(key, std::move(value));
    // Keep next_index ahead of explicit numeric keys.
    char* end = nullptr;
    const long n = std::strtol(key.c_str(), &end, 10);
    if (end && *end == '\0' && n >= array_->next_index) array_->next_index = n + 1;
}

void Value::push_element(Value value) {
    if (type_ != Type::kArray) *this = array();
    set_element(std::to_string(array_->next_index), std::move(value));
}

size_t Value::array_size() const {
    return type_ == Type::kArray && array_ ? array_->entries.size() : 0;
}

bool is_numeric_string(const std::string& s) {
    size_t i = 0;
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    bool digits = false, dot = false, exponent = false;
    for (; i < s.size(); ++i) {
        if (std::isdigit(static_cast<unsigned char>(s[i]))) {
            digits = true;
        } else if (s[i] == '.' && !dot && !exponent) {
            dot = true;
        } else if ((s[i] == 'e' || s[i] == 'E') && digits && !exponent) {
            exponent = true;
            digits = false;  // exponent needs its own digits
            if (i + 1 < s.size() && (s[i + 1] == '+' || s[i + 1] == '-')) ++i;
        } else {
            return false;
        }
    }
    return digits;
}

}  // namespace phpsafe::dynamic
